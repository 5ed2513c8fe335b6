package repro.harness

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec

import repro.{SparkSpec, TestData}
import repro.watdiv.WatDivQueries

/** The session every suite runs is [[JobSession]]'s: every shuffle has one
  * partition per core, and its generated-code cache holds the WatDiv
  * working set, so a repeated query shape reuses the classes compiled for
  * it instead of compiling them again.
  */
class JobSessionSpec extends SparkSpec {

  test("the test session carries the JobSession codegen cache size") {
    assert(spark.conf.get("spark.sql.codegen.cache.maxEntries") ==
      JobSession.CodegenCacheEntries.toString)
  }

  test("every shuffle has one partition per core") {
    val cores = spark.sparkContext.defaultParallelism
    assert(spark.conf.get("spark.sql.shuffle.partitions") == cores.toString)

    // The final adaptive plan, with its query stages unwrapped.
    def nodes(plan: SparkPlan): Seq[SparkPlan] = plan match {
      case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
      case s: QueryStageExec => nodes(s.plan)
      case p => p +: p.children.flatMap(nodes)
    }
    val c1 = TestData.prost.query(WatDivQueries.C1.query, vpOnly = false)
    c1.collect()
    val widths = nodes(c1.queryExecution.executedPlan).collect { case e: ShuffleExchangeExec => e.numPartitions }
    assert(widths.nonEmpty && widths.forall(_ == cores), s"shuffle widths $widths, $cores cores")
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
