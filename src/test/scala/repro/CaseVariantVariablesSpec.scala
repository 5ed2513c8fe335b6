package repro

import org.apache.spark.sql.DataFrame

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, BgpSql, SparqlParser}

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

  private lazy val prost = TestData.prostStore(graph)
  private lazy val gx = SparqlGxLike.loadFrom(spark, TestData.write(graph, "gx")(SparqlGxLike.writeTo))
  private lazy val s2rdf = S2RdfLike.loadFrom(spark, TestData.write(graph, "s2rdf")(S2RdfLike.writeTo))
  private lazy val rya = RyaLike.loadFrom(spark, TestData.write(graph, "rya")(RyaLike.writeTo))

  private val configurations = Seq[(String, BgpQuery => DataFrame)](
    "PRoST, mixed" -> (prost.query(_, vpOnly = false)),
    "PRoST, VP-only" -> (prost.query(_, vpOnly = true)),
    "SPARQLGX" -> (gx.query(_)),
    "S2RDF" -> (s2rdf.query(_)),
    "Rya" -> (rya.query(_)),
  )

  for ((name, run) <- configurations; sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
