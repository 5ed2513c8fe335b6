package repro.baselines

import java.nio.file.Files

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestData}
import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser, TriplePattern, Var, Iri}
import repro.watdiv.WatDivQueries

class S2RdfLikeSpec extends SparkSpec {

  /** The shared written store: the per-predicate ExtVP write is the
    * slowest step of the whole suite.
    */
  private lazy val dir: String = TestData.s2rdfDir

  for (nq <- WatDivQueries.All) {
    test(s"${nq.name}: S2RDF-like matches the oracle") {
      TestData.oracleCheck(TestData.s2rdf.query(nq.query), nq.query)
    }
  }

  test("ExtVP OS table is a semi-join reduction (never larger than VP)") {
    // likes.o joins caption.s: the reduction keeps only likes rows whose
    // product has a caption.
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?b . ?b sorg:caption ?c }")
    val likes = q.patterns.head
    val (table, size) = TestData.s2rdf.chooseTable(likes, q)
    val vpSize = TestData.stats("wsdbm:likes").tripleCount
    assert(size <= vpSize)
    assert(table.count() == size)
  }

  test("a reduction is chosen when it is strictly smaller than VP") {
    // caption coverage is 50%, so likes ⋉ caption is well under VP size.
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?b . ?b sorg:caption ?c }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size < TestData.stats("wsdbm:likes").tripleCount)
  }

  test("isolated pattern falls back to plain VP") {
    val q = SparqlParser.parse("SELECT * WHERE { ?a wsdbm:likes ?b }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size == TestData.stats("wsdbm:likes").tripleCount)
  }

  test("object-object joins fall back to VP (OO not materialised)") {
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?x . ?b wsdbm:purchaseFor ?x }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size == TestData.stats("wsdbm:likes").tripleCount)
  }

  test("parquet write/load round trip answers queries correctly") {
    val loaded = S2RdfLike.loadFrom(spark, dir)
    TestData.oracleCheck(loaded.query(WatDivQueries.L1.query), WatDivQueries.L1.query)
    TestData.oracleCheck(loaded.query(WatDivQueries.F1.query), WatDivQueries.F1.query)
  }

  test("the written store contains VP and the three ExtVP families") {
    for (sub <- Seq("vp", "extvp_SS", "extvp_SO", "extvp_OS"))
      assert(Files.exists(java.nio.file.Paths.get(s"$dir/$sub")), sub)
  }

  test("ExtVP holds many more tuples than VP alone (the paper's Table 1 point)") {
    // Byte sizes at this tiny scale are dominated by per-file overhead, so
    // the storage-blowup claim is asserted on row counts here; the Table 1
    // bench shows it in bytes at a realistic scale.
    val extRows = S2RdfLike.Positions
      .map(p => spark.read.parquet(s"$dir/extvp_$p").count()).sum
    val vpRows = TestData.triples.count()
    assert(extRows > 3 * vpRows, s"extRows=$extRows vpRows=$vpRows")
  }

  test("writing twice into the same directory replaces the ExtVP tables") {
    val graph = TripleOps.fromSeq(spark, Seq(
      ("a", "ex:p", "b"), ("b", "ex:q", "c"), ("a", "ex:q", "d"), ("c", "ex:p", "a")))
    val d = TestData.freshDir("s2rdf-twice")
    // Each ExtVP table's row count, per family: an append would double them.
    def sizes = S2RdfLike.Positions.map(pos => pos ->
      spark.read.parquet(s"$d/extvp_$pos").groupBy("p1", "p2").count().collect().toSet)
    S2RdfLike.writeTo(graph, d)
    val first = sizes
    val store = S2RdfLike.writeTo(graph, d)
    assert(sizes == first)
    for (sparql <- Seq("SELECT * WHERE { ?x ex:p ?y . ?y ex:q ?z }",
                       "SELECT * WHERE { ?x ex:p ?y . ?x ex:q ?z }")) withClue(sparql) {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(store.query(q), BgpSql.toSql(q), "triples" -> graph)
    }
  }
}
