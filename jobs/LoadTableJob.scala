package repro.jobs

import repro.harness.{BenchEnv, JobSession}

/** spark-submit entrypoint reproducing **Table 1** (size and loading time
  * for PRoST, SPARQLGX, S2RDF and Rya).
  *
  * Usage: `WATDIV_BENCH_SCALE=<n> spark-submit --class repro.jobs.LoadTableJob <jar>`
  */
object LoadTableJob {
  def main(args: Array[String]): Unit = {
    BenchEnv.requireNoArgs(args)
    val spark = JobSession.create("prost-table1-loading")
    println(BenchEnv.default(spark).table1)
    spark.stop()
  }
}
