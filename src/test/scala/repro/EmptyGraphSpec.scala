package repro

import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** A graph without triples is a legal input: every engine writes a store
  * of it, opens that store, and answers every query with no rows, as
  * DuckDB does over an empty table.
  */
class EmptyGraphSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq.empty)

  private val queries = Seq(
    "SELECT * WHERE { ?s ex:p ?o }",
    "SELECT * WHERE { ?s ex:p ?o . ?s ex:q ?v }",
    "SELECT * WHERE { ex:a ex:p ex:b . ?s ex:q ?o }",
  )

  for ((name, run) <- TestData.configurations(graph); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
