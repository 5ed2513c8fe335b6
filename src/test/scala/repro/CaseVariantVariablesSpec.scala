package repro

import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** SPARQL variables are case-sensitive: `?x` and `?X` are two variables,
  * so two answer columns. Every engine names its binding columns after the
  * variables, and each configuration is checked against DuckDB.
  */
class CaseVariantVariablesSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("a", "ex:p", "b"),
    ("a", "ex:p", "a"),
    ("b", "ex:p", "c"),
    ("a", "ex:q", "1"),
    ("b", "ex:q", "2"),
    ("c", "ex:q", "3"),
  ))

  private val queries = Seq(
    "SELECT ?x ?X WHERE { ?x ex:p ?X }",
    "SELECT * WHERE { ?x ex:p ?X . ?x ex:q ?y . ?X ex:q ?Y }",
  )

  for ((name, run) <- TestData.configurations(graph); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
