package repro.jobs

import repro.harness.{BenchEnv, JobSession}

/** spark-submit entrypoint reproducing **Table 2** (average querying time
  * per query group for PRoST, S2RDF, Rya and SPARQLGX).
  *
  * Usage: `WATDIV_BENCH_SCALE=<n> spark-submit --class repro.jobs.QueryTableJob <jar>`
  */
object QueryTableJob {
  def main(args: Array[String]): Unit = {
    BenchEnv.requireNoArgs(args)
    val spark = JobSession.create("prost-table2-querying")
    println(BenchEnv.default(spark).table2)
    spark.stop()
  }
}
