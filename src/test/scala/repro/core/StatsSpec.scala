package repro.core

import repro.{SparkSpec, TestData}
import repro.rdf.TripleOps

class StatsSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:p", "ex:x"),
    ("ex:a", "ex:p", "ex:y"),
    ("ex:b", "ex:p", "ex:x"),
    ("ex:a", "ex:q", "1"),
    ("ex:b", "ex:q", "2"),
    ("ex:c", "ex:q", "3"),
    ("ex:a", "ex:r", "only"),
  ))

  private lazy val stats = GraphStats.compute(graph)

  test("triple counts per predicate") {
    assert(stats("ex:p").tripleCount == 3)
    assert(stats("ex:q").tripleCount == 3)
    assert(stats("ex:r").tripleCount == 1)
  }

  test("distinct subjects per predicate") {
    assert(stats("ex:p").distinctSubjects == 2)
    assert(stats("ex:q").distinctSubjects == 3)
    assert(stats("ex:r").distinctSubjects == 1)
  }

  test("max per subject detects multi-valued predicates") {
    assert(stats("ex:p").isMultiValued)
    assert(!stats("ex:q").isMultiValued)
    assert(!stats("ex:r").isMultiValued)
  }

  test("multi-valued equals a subject holding two objects, duplicate triples included") {
    val duplicated = TripleOps.fromSeq(spark, Seq(
      ("ex:a", "ex:dup", "ex:x"),
      ("ex:a", "ex:dup", "ex:x"),
      ("ex:b", "ex:one", "ex:x"),
      ("ex:c", "ex:one", "ex:x"),
    ))
    for ((name, graph) <- Seq("watdiv" -> TestData.triples, "duplicated" -> duplicated)) {
      graph.createOrReplaceTempView("t_multi_check")
      val expected = spark.sql(
        "SELECT p, max(n) > 1 FROM (SELECT p, count(*) AS n FROM t_multi_check GROUP BY p, s) GROUP BY p"
      ).collect().map(r => r.getString(0) -> r.getBoolean(1)).toMap
      val computed = GraphStats.compute(graph)
      assert(computed.predicates.map(p => p -> computed(p).isMultiValued).toMap == expected, name)
    }
    assert(GraphStats.compute(duplicated)("ex:dup").isMultiValued)
  }

  test("unknown predicate yields zero stats") {
    val st = stats("ex:missing")
    assert(st.tripleCount == 0 && st.distinctSubjects == 0 && !st.isMultiValued)
  }

  test("totalTriples sums all predicates") {
    assert(stats.totalTriples == 7)
  }

  test("predicates are sorted") {
    assert(stats.predicates == Seq("ex:p", "ex:q", "ex:r"))
  }

  test("stats on the WatDiv graph agree with direct SQL") {
    val s = repro.TestData.stats
    val t = repro.TestData.triples
    t.createOrReplaceTempView("t_stats_check")
    val row = spark.sql(
      "SELECT count(*), count(distinct s) FROM t_stats_check WHERE p = 'wsdbm:likes'"
    ).collect().head
    assert(s("wsdbm:likes").tripleCount == row.getLong(0))
    assert(s("wsdbm:likes").distinctSubjects == row.getLong(1))
  }

  test("TSV round trip preserves every field") {
    val dir = TestData.freshDir("stats")
    Prost.writeStats(stats, s"$dir/stats.tsv")
    val back = Prost.readStats(s"$dir/stats.tsv")
    assert(back == stats)
  }

  test("readStats names the file and line of a malformed line") {
    val path = java.nio.file.Paths.get(TestData.freshDir("stats-bad"), "stats.tsv")
    java.nio.file.Files.writeString(path, "ex:p\t3\t2\n\nex:q\t3\n")
    val e = intercept[IllegalArgumentException](Prost.readStats(path.toString))
    assert(e.getMessage.startsWith(s"$path:3:"), e.getMessage)
    assert(e.getMessage.contains("expected 3 tab-separated fields, found 2"), e.getMessage)

    java.nio.file.Files.writeString(path, "ex:p\t3\ttwo\n")
    val nonNumeric = intercept[IllegalArgumentException](Prost.readStats(path.toString))
    assert(nonNumeric.getMessage.startsWith(s"$path:1:"), nonNumeric.getMessage)
  }

  test("readStats names the file, line and escape of a field Tsv.decode rejects") {
    val path = java.nio.file.Paths.get(TestData.freshDir("stats-bad-escape"), "stats.tsv")
    for ((field, why) <- Seq("ex:a\\qb" -> "unknown escape \\q", "ex:a\\" -> "trailing \\"))
      withClue(field) {
        java.nio.file.Files.writeString(path, s"ex:p\t3\t2\n$field\t1\t1\n")
        val e = intercept[IllegalArgumentException](Prost.readStats(path.toString))
        assert(e.getMessage.startsWith(s"$path:2: $why:"), e.getMessage)
      }
  }

  test("TSV round trip keeps predicates holding tabs, line breaks and backslashes") {
    val dir = TestData.freshDir("stats-escaped")
    val predicates = Seq("ex:a\tb", "ex:a\nb", "ex:a\rb", "ex:a\\b", "ex:a\\tb")
    val odd = GraphStats(predicates.zipWithIndex.map { case (p, i) =>
      p -> PredicateStats(i + 1L, 1)
    }.toMap)
    Prost.writeStats(odd, s"$dir/stats.tsv")
    val back = Prost.readStats(s"$dir/stats.tsv")
    assert(back == odd)
  }
}
