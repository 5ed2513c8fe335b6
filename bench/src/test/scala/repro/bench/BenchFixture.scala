package repro.bench

import repro.SparkSpec
import repro.harness.BenchEnv

/** One benchmark environment per JVM: stores are built (and their load
  * phases timed) and the query sets timed exactly once, then shared by the
  * per-table suites.
  */
object BenchFixture {
  lazy val env: BenchEnv = BenchEnv.default(SparkSpec.shared)
}
