package repro.bench

import repro.SparkSpec
import repro.harness.BenchEnv

/** Reproduces the comparison behind the paper's **Figure 2** (presented
  * here as a table, figures being out of scope): the same PRoST store
  * answering the query set with Vertical Partitioning only vs the mixed
  * VP + Property Table strategy.
  *
  * Expected shape (paper): the mixed strategy wins clearly on Star,
  * Complex and Snowflake queries and ties on Linear ones.
  */
class VpVsMixedBench extends SparkSpec {
  import BenchFixture.env
  import BenchEnv.groupAverages

  test("Figure 2 companion: print per-query VP-only vs mixed timings") {
    println(env.figure2)
    assert(env.prostVpOnly.size == 20 && env.prostMixed.size == 20)
  }

  test("both strategies return identical row counts per query") {
    env.prostVpOnly.zip(env.prostMixed).foreach { case (v, m) =>
      assert(v.rows == m.rows, s"${v.query}: vpOnly=${v.rows} mixed=${m.rows}")
    }
  }

  test("shape: the mixed strategy wins on star queries") {
    val v = groupAverages(env.prostVpOnly)
    val m = groupAverages(env.prostMixed)
    assert(m("S") < v("S"), f"S group: mixed=${m("S")}%.0fms vpOnly=${v("S")}%.0fms")
  }

  test("shape: the mixed strategy is no worse overall") {
    val vTotal = env.prostVpOnly.map(_.millis).sum.toDouble
    val mTotal = env.prostMixed.map(_.millis).sum.toDouble
    assert(mTotal < 1.15 * vTotal, f"mixed=$mTotal%.0fms vpOnly=$vTotal%.0fms")
  }
}
