package repro

import org.apache.spark.sql.DataFrame

import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, BgpSql, SparqlParser}

/** Terms no store may mangle: a tab in a subject, line feeds and carriage
  * returns in objects, quotes, backslashes and non-ASCII characters, a
  * join on a literal that holds a line break, and predicates holding a tab,
  * a line break or a backslash. Every configuration is checked against
  * DuckDB on its written and reopened store.
  */
class AwkwardTermsSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("a\tb", "ex:p", "x"),
    ("c", "ex:p", "line one\nline two"),
    ("d", "ex:q", "line one\nline two"),
    ("d", "ex:p", "carriage\rreturn"),
    ("e", "ex:p", "say \"hi\" \\ back\\t"),
    ("é", "ex:q", "日本語"),
    ("é", "ex:p", "a\tb"),
    ("a\tb", "ex:q", "z"),
    ("a", "ex:a\tb", "x"),
    ("b", "ex:a\tb", "y"),
    ("x", "ex:a\nb", "a"),
    ("y", "ex:a\rb", "b"),
    ("a", "ex:a\\b", "z"),
    ("a", "ex:a\\tb", "w"),
  ))

  private val queries = Seq(
    "SELECT * WHERE { ?x ex:p ?o }",
    "SELECT * WHERE { ?x ex:p ?o . ?y ex:q ?o }",
    "SELECT * WHERE { ?x ex:p ?o . ?x ex:q ?v }",
    "SELECT * WHERE { ?x ex:p ?o . ?o ex:q ?v }",
    "SELECT ?x WHERE { ?x ex:p \"line one\\nline two\" }",
    "SELECT ?o WHERE { \"a\\tb\" ex:p ?o }",
  )

  private val predicateQueries = Seq(
    "SELECT * WHERE { ?x <ex:a\tb> ?y }",
    "SELECT * WHERE { ?x <ex:a\nb> ?y }",
    "SELECT * WHERE { ?x <ex:a\rb> ?y }",
    "SELECT * WHERE { ?x <ex:a\\b> ?y }",
    "SELECT * WHERE { ?x <ex:a\\tb> ?y }",
    "SELECT * WHERE { ?x <ex:a\tb> ?y . ?y <ex:a\nb> ?z }",
    "SELECT * WHERE { ?x <ex:a\tb> ?y . ?y <ex:a\rb> ?z . ?x <ex:a\\b> ?w }",
  )

  private def oracleCorrect(run: BgpQuery => DataFrame, sparql: String): Unit = {
    val q = SparqlParser.parse(sparql)
    Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
  }

  private val configurations = TestData.configurations(graph)

  for ((name, run) <- configurations; sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      oracleCorrect(run, sparql)
    }

  for ((name, run) <- configurations)
    test(s"$name: predicates holding a tab, line break or backslash") {
      for (sparql <- predicateQueries) withClue(sparql)(oracleCorrect(run, sparql))
    }
}
