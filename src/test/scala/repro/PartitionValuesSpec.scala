package repro

import org.apache.spark.sql.DataFrame

import repro.baselines.{S2RdfLike, SparqlGxLike}
import repro.core.Prost
import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, BgpSql, SparqlParser}

/** Predicates become partition directory names (`p=<predicate>`) in every
  * store partitioned by predicate: PRoST's VP tables, SPARQLGX's text
  * files and S2RDF's VP and ExtVP tables. Read back, they must be the same
  * strings: `1` and `01` stay two predicates even though both look like
  * the number one, and a predicate that no directory can name (Spark
  * reads it back as NULL) is rejected when the store is written instead
  * of vanishing.
  */
class PartitionValuesSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("a", "1", "b"),
    ("b", "1", "b"),
    ("c", "1", "a"),
    ("a", "01", "x"),
    ("b", "01", "c"),
  ))

  private val queries = Seq(
    "SELECT * WHERE { ?x <1> ?y }",
    "SELECT * WHERE { ?x <01> ?y }",
    "SELECT * WHERE { ?x <1> ?y . ?y <01> ?z }",
    "SELECT * WHERE { ?x <1> ?y . ?x <01> ?z }",
  )

  private def oracleCorrect(run: BgpQuery => DataFrame): Unit =
    for (sparql <- queries) withClue(sparql) {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }

  private lazy val prost = TestData.prostStore(graph)

  test("PRoST, mixed: predicates 1 and 01 stay apart") {
    oracleCorrect(prost.query(_, vpOnly = false))
  }

  test("PRoST, VP-only: predicates 1 and 01 stay apart") {
    oracleCorrect(prost.query(_, vpOnly = true))
  }

  test("SPARQLGX: predicates 1 and 01 stay apart") {
    val gx = SparqlGxLike.loadFrom(spark, TestData.write(graph, "gx")(SparqlGxLike.writeTo))
    oracleCorrect(gx.query)
  }

  test("S2RDF: predicates 1 and 01 stay apart") {
    val s2rdf = S2RdfLike.loadFrom(spark, TestData.write(graph, "s2rdf")(S2RdfLike.writeTo))
    oracleCorrect(s2rdf.query)
  }

  test("writeTo rejects a predicate no partition directory can name") {
    for (p <- Seq("", "__HIVE_DEFAULT_PARTITION__");
         (engine, writeTo) <- Seq[(String, (DataFrame, String) => Any)](
           "PRoST" -> Prost.writeTo, "SPARQLGX" -> SparqlGxLike.writeTo,
           "S2RDF" -> S2RdfLike.writeTo)) withClue(s"$engine, predicate \"$p\"") {
      val unnamable = TripleOps.fromSeq(spark, Seq(("a", p, "b"), ("a", "ex:p", "c")))
      val e = intercept[IllegalArgumentException](TestData.write(unnamable, "unnamable")(writeTo))
      assert(e.getMessage.contains(s"predicate \"$p\""), e.getMessage)
    }
  }
}
