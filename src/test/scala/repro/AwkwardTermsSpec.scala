package repro

import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** Terms no store may mangle: a tab in a subject, line feeds and carriage
  * returns in objects, quotes, backslashes and non-ASCII characters, and a
  * join on a literal that holds a line break. Every configuration is
  * checked against DuckDB on its written and reopened store.
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
  ))

  private val queries = Seq(
    "SELECT * WHERE { ?x ex:p ?o }",
    "SELECT * WHERE { ?x ex:p ?o . ?y ex:q ?o }",
    "SELECT * WHERE { ?x ex:p ?o . ?x ex:q ?v }",
    "SELECT * WHERE { ?x ex:p ?o . ?o ex:q ?v }",
    "SELECT ?x WHERE { ?x ex:p \"line one\\nline two\" }",
    "SELECT ?o WHERE { \"a\\tb\" ex:p ?o }",
  )

  for ((name, run) <- TestData.configurations(graph); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
