package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

import repro.harness.JobSession

/** Base for every test: one local-mode SparkSession for the whole run,
  * built by [[JobSession.create]] so the tests run the session the
  * benchmark and the `jobs/` entrypoints run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, falling back to 48g when it is unset; the Tier-1
  * command in ROADMAP.md exports half of the machine's MemTotal, clamped
  * to 2–8 GB.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.create("repro")
    // One line in test output that names the heap and cores the run got.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    )
    s
  }
}
