package repro.harness

import org.apache.spark.metrics.source.CodegenMetrics

import repro.{SparkSpec, TestData}
import repro.watdiv.WatDivQueries

/** The session every suite runs is [[JobSession]]'s, and its generated-code
  * cache holds the WatDiv working set: a repeated query shape reuses the
  * classes compiled for it instead of compiling them again.
  */
class JobSessionSpec extends SparkSpec {

  test("the test session carries the JobSession codegen cache size") {
    assert(spark.conf.get("spark.sql.codegen.cache.maxEntries") ==
      JobSession.CodegenCacheEntries.toString)
  }

  test("a second pass over the 20 WatDiv queries in both modes compiles no class") {
    def pass(): Unit =
      for (nq <- WatDivQueries.All; vpOnly <- Seq(false, true))
        TestData.prost.query(nq.query, vpOnly).collect()
    def compiled: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount

    val before = compiled
    pass()
    val first = compiled
    pass()
    val second = compiled
    assert(second == first,
      s"the first pass compiled ${first - before} classes, the second ${second - first}")
  }
}
