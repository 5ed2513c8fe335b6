package repro

import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** A pattern without variables binds nothing, so the engines keep one
  * marker column for its rows. Any legal variable name, `?__ground`
  * included, must stay apart from that marker: joined to it, the
  * variable's column would be compared with a boolean. Each configuration
  * is checked against DuckDB, with the same query under a plain name.
  */
class GroundMarkerSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:p", "ex:b"),
    ("ex:x", "ex:q", "v1"),
    ("ex:y", "ex:q", "true"),
  ))

  private val queries = Seq(
    "SELECT ?__ground WHERE { ex:a ex:p ex:b . ?x ex:q ?__ground }",
    "SELECT ?g WHERE { ex:a ex:p ex:b . ?x ex:q ?g }",
  )

  for ((name, run) <- TestData.configurations(graph); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
