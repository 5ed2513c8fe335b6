package repro

import org.apache.spark.sql.DataFrame

import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, BgpSql, SparqlParser}

/** Every store partitioned by predicate — PRoST's VP tables, SPARQLGX's
  * text files and S2RDF's VP and ExtVP tables — names a partition by the
  * predicate's id, never by the predicate itself. So `1` and `01` stay two
  * predicates even though both look like the number one, and predicates
  * no directory could name (the empty string, which Spark writes as its
  * default partition, and an IRI longer than a file name may be) are
  * written and queried like any other.
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

  private def oracleCorrect(run: BgpQuery => DataFrame, graph: DataFrame, queries: Seq[String]): Unit =
    for (sparql <- queries) withClue(sparql) {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }

  /** The configurations whose stores are partitioned by predicate. */
  private def partitioned(graph: => DataFrame) = TestData.configurations(graph).filter(_._1 != "Rya")

  for ((name, run) <- partitioned(graph))
    test(s"$name: predicates 1 and 01 stay apart") {
      oracleCorrect(run, graph, queries)
    }

  private val longIri = "http://example.org/" + "x" * 281

  private lazy val unnamable = TripleOps.fromSeq(spark, Seq(
    ("a", "", "b"),
    ("b", "", "c"),
    ("a", "__HIVE_DEFAULT_PARTITION__", "c"),
    ("b", "__HIVE_DEFAULT_PARTITION__", "a"),
    ("a", longIri, "1"),
    ("c", longIri, "2"),
  ))

  test("writeTo accepts and queries predicates no partition directory can name") {
    assert(longIri.length == 300)
    val queries = Seq(
      "SELECT * WHERE { ?x <> ?y }",
      "SELECT * WHERE { ?x <__HIVE_DEFAULT_PARTITION__> ?y }",
      s"SELECT * WHERE { ?x <$longIri> ?y }",
      s"SELECT * WHERE { ?x <> ?y . ?y <> ?z . ?x <__HIVE_DEFAULT_PARTITION__> ?w . ?x <$longIri> ?v }",
      "SELECT * WHERE { ?x <__HIVE_DEFAULT_PARTITION__> ?y . ?y <> ?z }",
    )
    for ((name, run) <- partitioned(unnamable)) withClue(name) {
      oracleCorrect(run, unnamable, queries)
    }
  }
}
