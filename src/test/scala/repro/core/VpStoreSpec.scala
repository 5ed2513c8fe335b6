package repro.core

import repro.{SparkSpec, TestData}
import repro.rdf.TripleOps

class VpStoreSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:p", "ex:x"),
    ("ex:b", "ex:p", "ex:y"),
    ("ex:a", "ex:q", "1"),
  ))
  private lazy val stats = GraphStats.compute(graph)
  private lazy val store = TestData.prostStore(graph).vp

  test("one table per predicate with the right rows") {
    assert(store.tableFor("ex:p").count() == 2)
    assert(store.tableFor("ex:q").count() == 1)
  }

  test("tables have exactly the (s, o) columns") {
    assert(store.tableFor("ex:p").columns.toSeq == Seq("s", "o"))
  }

  test("unknown predicate yields an empty (s, o) table, not an error") {
    val t = store.tableFor("ex:nope")
    assert(t.columns.toSeq == Seq("s", "o"))
    assert(t.count() == 0)
  }

  test("rows are the (subject, object) pairs of that predicate") {
    val rows = store.tableFor("ex:p").collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(rows == Set(("ex:a", "ex:x"), ("ex:b", "ex:y")))
  }

  test("parquet write/load round trip") {
    val dir = TestData.freshDir("vp")
    VpStore.write(graph, stats, dir)
    val loaded = VpStore.load(spark, dir, stats)
    assert(loaded.tableFor("ex:p").count() == 2)
    assert(loaded.tableFor("ex:q").collect().head.getString(1) == "1")
  }

  test("written layout has one partition directory per predicate") {
    val dir = TestData.freshDir("vp")
    VpStore.write(graph, stats, dir)
    val subdirs = new java.io.File(dir).listFiles().filter(_.isDirectory).map(_.getName)
    assert(subdirs.count(_.startsWith("p=")) == 2, subdirs.mkString(", "))
  }
}
