package repro.harness

import repro.{SparkSpec, TestData}
import repro.watdiv.WatDivQueries

/** The paper-tables harness at the test scale, PRoST only: it loads, and
  * its Figure 2 experiment runs and prints. No timing is asserted, and no
  * baseline runs (the ExtVP load is the slow one).
  */
class BenchEnvSpec extends SparkSpec {

  private lazy val env = new BenchEnv(spark, TestData.Scale, TestData.freshDir("bench"))

  test("the PRoST load reports the bytes it wrote") {
    val report = env.prostLoad._2
    assert(report.system == "PRoST")
    assert(report.bytes > 0)
  }

  test("the Figure 2 printout has one row per WatDiv query") {
    val rows = env.figure2.linesIterator.drop(2).toSeq
    assert(rows.map(_.split(" +").head) == WatDivQueries.All.map(_.name), env.figure2)
  }

  test("mixed and VP-only return the same row count per query") {
    assert(env.prostMixed.map(t => t.query -> t.rows) == env.prostVpOnly.map(t => t.query -> t.rows))
  }
}
