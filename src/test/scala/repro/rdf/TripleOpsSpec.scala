package repro.rdf

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SparkSpec, TestData}
import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.Prost
import repro.sparql.{BgpQuery, BgpSql, SparqlParser}

class TripleOpsSpec extends SparkSpec {

  private def sample = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:p", "ex:b"),
    ("ex:a", "ex:p", "ex:b"), // duplicate
    ("ex:a", "ex:q", "lit value"),
    ("ex:b", "ex:p", "ex:c"),
  ))

  test("fromSeq produces the canonical columns") {
    assert(sample.columns.toSeq == Seq("s", "p", "o"))
  }

  test("canonical enforces set semantics") {
    assert(TripleOps.canonical(sample).count() == 3)
  }

  test("canonical reorders columns") {
    val reordered = sample.select("o", "p", "s")
    assert(TripleOps.canonical(reordered).columns.toSeq == Seq("s", "p", "o"))
  }

  test("text round trip preserves the graph") {
    val dir = TestData.freshDir("triples-text")
    val canon = TripleOps.canonical(sample)
    TripleOps.writeText(canon, s"$dir/t")
    val back = TripleOps.readText(spark, s"$dir/t")
    assert(back.collect().map(_.toSeq).toSet == canon.collect().map(_.toSeq).toSet)
  }

  test("text round trip keeps literals with spaces intact") {
    val dir = TestData.freshDir("triples-text")
    TripleOps.writeText(sample, s"$dir/t")
    val back = TripleOps.readText(spark, s"$dir/t")
    assert(back.where("p = 'ex:q'").select("o").collect().head.getString(0) == "lit value")
  }

  test("text round trip keeps literals holding tabs whole, and queries over them are correct") {
    val dir = TestData.freshDir("triples-text")
    val graph = TripleOps.fromSeq(spark, Seq(
      ("ex:a", "ex:q", "one\ttwo"),
      ("ex:b", "ex:q", "one\ttwo\tthree"),
      ("ex:b", "ex:p", "ex:a"),
      ("ex:c", "ex:q", "\tlead and trail\t"),
    ))
    TripleOps.writeText(graph, s"$dir/t")
    val back = TripleOps.readText(spark, s"$dir/t")
    assert(back.collect().map(_.toSeq).toSet == graph.collect().map(_.toSeq).toSet)

    val db = TestData.prostStore(back)
    for (sparql <- Seq(
           "SELECT * WHERE { ?x ex:q ?v }",
           "SELECT ?x WHERE { ?x ex:q \"one\ttwo\" }",
           "SELECT ?x WHERE { ?x ex:q \"one\ttwo\tthree\" }",
           "SELECT ?y WHERE { ?y ex:p ?x . ?x ex:q \"one\ttwo\" }");
         vpOnly <- Seq(false, true)) {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(db.query(q, vpOnly), BgpSql.toSql(q), "triples" -> graph)
    }
  }

  test("text round trip keeps tabs, line breaks and backslashes in any term") {
    val dir = TestData.freshDir("triples-text")
    val graph = TripleOps.fromSeq(spark, Seq(
      ("a\tb", "ex:p", "x"),
      ("c", "ex:p", "one\ntwo"),
      ("d", "ex:p", "carriage\rreturn"),
      ("back\\slash", "ex:q\\t", "a\\tb"),
      ("c", "ex:q\\t", "one\ntwo"),
    ))
    TripleOps.writeText(graph, s"$dir/t")
    val back = TripleOps.readText(spark, s"$dir/t")
    assert(back.collect().map(_.toSeq).toSet == graph.collect().map(_.toSeq).toSet)

    val db = TestData.prostStore(back)
    for (sparql <- Seq(
           "SELECT * WHERE { ?x ex:p ?v }",
           "SELECT ?v WHERE { \"a\\tb\" ex:p ?v }",
           "SELECT ?x WHERE { ?x ex:p \"one\\ntwo\" }",
           "SELECT ?x WHERE { ?x ex:p \"carriage\\rreturn\" }",
           "SELECT * WHERE { ?x <ex:q\\t> ?v }",
           "SELECT ?x WHERE { ?x <ex:q\\t> \"a\\\\tb\" }",
           "SELECT * WHERE { ?x ex:p ?v . ?y <ex:q\\t> ?v }");
         vpOnly <- Seq(false, true)) {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(db.query(q, vpOnly), BgpSql.toSql(q), "triples" -> graph)
    }
  }

  test("readText rejects an escape writeText never writes, naming it") {
    val dir = TestData.freshDir("triples-bad-escape")
    Files.writeString(Paths.get(dir, "bad.txt"), "ex:b\tex:p\tex:c\nex:a\tex:p\tex:a\\qb\n")
    val e = intercept[Exception](TripleOps.readText(spark, dir).collect())
    assert(e.getMessage.contains("unknown escape \\q"), e.getMessage)
    assert(e.getMessage.contains("bad.txt"), e.getMessage)
  }

  /** Each engine's `writeTo`, with how to query the store it returns. */
  private val engines: Seq[(String, (DataFrame, String) => BgpQuery => DataFrame)] = Seq(
    "PRoST" -> { (g, d) => val db = Prost.writeTo(g, d); db.query(_, vpOnly = false) },
    "SPARQLGX" -> ((g, d) => SparqlGxLike.writeTo(g, d).query),
    "S2RDF" -> ((g, d) => S2RdfLike.writeTo(g, d).query),
    "Rya" -> ((g, d) => RyaLike.writeTo(g, d).query),
  )

  for ((name, writeTo) <- engines)
    test(s"$name writeTo keeps the caller's cache, adds none and returns an opened store") {
      // Distinct rows per graph: Spark finds a cache by plan, so equal graphs would share one.
      def graph(tag: String) = TripleOps.fromSeq(spark, Seq(
        ("ex:a", "ex:p", s"ex:$name-$tag"), (s"ex:$name-$tag", "ex:q", "ex:c"), ("ex:a", "ex:q", "ex:d")))
      val cached = graph("cached").cache()
      cached.count()
      val uncached = graph("uncached")
      val q = SparqlParser.parse("SELECT * WHERE { ?x ex:p ?y . ?y ex:q ?z }")
      try {
        for (g <- Seq(cached, uncached)) {
          val query = writeTo(g, TestData.freshDir("cache-owner"))
          Oracle.assertEquivalent(query(q), BgpSql.toSql(q), "triples" -> g)
        }
        assert(cached.storageLevel != StorageLevel.NONE, "the caller's cache was dropped")
        assert(uncached.storageLevel == StorageLevel.NONE, "writeTo left a cache behind")
      } finally cached.unpersist()
    }

  test("readText rejects a line without three fields, naming the file") {
    val dir = TestData.freshDir("triples-bad")
    for ((line, shown) <- Seq(
           "ex:a" -> "\"ex:a\"",
           "ex:a\tex:p" -> "\"ex:a\\tex:p\"",
           "ex:a\tex:p\tex:b\tex:c" -> "\"ex:a\\tex:p\\tex:b\\tex:c\""))
      withClue(shown) {
        Files.writeString(Paths.get(dir, "bad.txt"), s"ex:b\tex:p\tex:c\n$line\n")
        val e = intercept[Exception](TripleOps.readText(spark, dir).collect())
        assert(e.getMessage.contains("bad.txt"), e.getMessage)
        assert(e.getMessage.contains(shown), e.getMessage)
      }
  }
}
