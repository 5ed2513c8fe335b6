package repro.jobs

import repro.harness.{BenchEnv, JobSession}

/** spark-submit entrypoint reproducing the paper's **Figure 2** comparison
  * (VP-only vs the mixed VP + Property Table strategy) as a table.
  *
  * Usage: `WATDIV_BENCH_SCALE=<n> spark-submit --class repro.jobs.VpVsMixedJob <jar>`
  */
object VpVsMixedJob {
  def main(args: Array[String]): Unit = {
    BenchEnv.requireNoArgs(args)
    val spark = JobSession.create("prost-fig2-vp-vs-mixed")
    println(BenchEnv.default(spark).figure2)
    spark.stop()
  }
}
