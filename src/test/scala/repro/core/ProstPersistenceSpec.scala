package repro.core

import java.nio.file.Files

import repro.{SparkSpec, TestData}
import repro.watdiv.WatDivQueries

/** The on-disk loading phase: write VP + PT + stats, reopen, query. */
class ProstPersistenceSpec extends SparkSpec {

  private lazy val dir = TestData.prostDir
  private lazy val persisted: ProstDb = TestData.prost

  test("writeTo creates the vp, pt and stats artefacts") {
    persisted // force
    assert(Files.exists(java.nio.file.Paths.get(s"$dir/vp")))
    assert(Files.exists(java.nio.file.Paths.get(s"$dir/pt")))
    assert(Files.exists(java.nio.file.Paths.get(s"$dir/stats.tsv")))
  }

  test("stats survive the round trip") {
    assert(persisted.stats == TestData.stats)
  }

  test("opening the same store twice answers queries identically") {
    val reopened = Prost.loadFrom(spark, dir)
    val q = WatDivQueries.S3.query
    val a = persisted.query(q, vpOnly = false).collect().map(_.toSeq).toSeq
    val b = reopened.query(q, vpOnly = false).collect().map(_.toSeq).toSeq
    assert(a.sortBy(_.toString) == b.sortBy(_.toString))
  }

  test("a reopened database is oracle-correct on a star query") {
    val reopened = Prost.loadFrom(spark, dir)
    TestData.oracleCheck(reopened.query(WatDivQueries.S2.query, vpOnly = false),
      WatDivQueries.S2.query)
  }

  test("a reopened database is oracle-correct on a linear query") {
    val reopened = Prost.loadFrom(spark, dir)
    TestData.oracleCheck(reopened.query(WatDivQueries.L2.query, vpOnly = false),
      WatDivQueries.L2.query)
  }

  test("PRoST on-disk footprint includes both partitionings") {
    persisted // force
    val vpBytes = repro.util.Timing.dirBytes(java.nio.file.Paths.get(s"$dir/vp"))
    val ptBytes = repro.util.Timing.dirBytes(java.nio.file.Paths.get(s"$dir/pt"))
    assert(vpBytes > 0 && ptBytes > 0)
  }
}
