package prostbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator

import org.apache.spark.sql.SparkSession

/** Minimal JSON rendering for the result line and the result files. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    (sb += '"').toString
  }
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a JSON number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
  def num(x: Long): String = x.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}

/** One reported metric. */
final case class Metric(name: String, value: Double, unit: String) {
  def json: String = Json.obj(Seq("value" -> Json.num(value), "unit" -> Json.str(unit)))
}

object Metric {

  /** The gated end-to-end metrics of an untraced run whose timed
    * operations took `ms` each.
    */
  def endToEnd(setupS: Double, ms: Seq[Double], storeBytes: Double): Seq[Metric] = Seq(
    Metric("setup_s", setupS, "s"),
    Metric("latency_gmean_ms", Stats.gmean(ms), "ms"),
    Metric("ops_per_s", ms.size / (ms.sum / 1000.0), "1/s"),
    Metric("store_bytes", storeBytes, "bytes"),
    Metric("peak_rss_mb", Jvm.peakRssMb, "MB"),
  )
}

/** Summary statistics over timing samples. */
object Stats {

  /** Quantile `q` with linear interpolation between closest ranks. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Geometric mean, the central latency of a mix of queries whose times
    * differ by orders of magnitude (as TPC-H's power metric uses it).
    */
  def gmean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), "geometric mean needs positive samples")
    math.exp(xs.map(math.log).sum / xs.size)
  }
}

/** Command line of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: Path, graphDir: Path, resultsDir: Path)

object Args {
  val Workloads: Seq[String] = Seq("query-mixed", "query-vponly", "load")

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"expected --name value pairs, got ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => sys.error(s"--trace must be 0 or 1, got $t")
    }
    require(Workloads.contains(get("workload")), s"--workload must be one of ${Workloads.mkString(", ")}")
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, trace,
      Paths.get(get("work-dir")), Paths.get(get("graph-dir")), Paths.get(get("results-dir")))
  }
}

/** What one workload run measured.
  *
  * @param metrics  the result line's metrics: end-to-end (untraced run) or
  *                 per-layer (traced run)
  * @param printed  further end-to-end metrics under their workload-specific
  *                 names, printed and kept in the result file but not gated
  * @param notes    further report lines (per-template tables, self-checks)
  * @param env      the environment record; runs compare only like with like
  * @param selfCheckErrors failed self-checks of the benchmark's own counters
  */
final case class Outcome(
    metrics: Seq[Metric],
    printed: Seq[Metric],
    notes: Seq[String],
    env: Seq[(String, String)],
    selfCheckErrors: Seq[String] = Nil,
)

/** State shared by the workloads of one run; `t0` is when set-up began. */
final class Ctx(val spark: SparkSession, val args: Args, t0: Long) {
  val tracer = new Tracer
  lazy val counters = new GroupCounters(spark)

  /** Scale of the generated graph: 408k triples, 18 MB of source text. */
  val scale: Double = 3.0

  private val phases = scala.collection.mutable.ArrayBuffer.empty[(String, Double, Boolean)]
  private var phaseEnd = t0

  /** Close the phase `name`, which ran since the previous one; `setup`
    * says whether it counts as set-up of the program.
    */
  def phase(name: String, setup: Boolean = true): Unit = {
    val now = System.nanoTime()
    phases += ((name, (now - phaseEnd) / 1e9, setup))
    phaseEnd = now
  }

  /** Seconds spent in set-up phases so far. */
  def setupS: Double = phases.collect { case (_, s, true) => s }.sum

  def phaseReport: String = phases.map { case (n, s, _) => f"$n=$s%.2fs" }.mkString("set-up phases: ", " ", "")

  def dir(name: String): String = args.workDir.resolve(name).toString

  private var checked = 0L
  private var failures = 0L

  /** Record one checked operation; `error` describes a failure. */
  def check(what: String, error: Option[String]): Unit = {
    checked += 1
    error.foreach { e =>
      failures += 1
      Console.err.println(s"CHECK FAILED: $what: $e")
    }
  }

  def attempted: Long = checked
  def failed: Long = failures

  /** Run `op`; an exception counts as a failed check of `what`. */
  def guarded[A](what: String)(op: => A): Option[A] =
    try Some(op)
    catch {
      case e: Exception =>
        check(what, Some(s"${e.getClass.getSimpleName}: ${e.getMessage}"))
        None
    }
}

object Dirs {

  /** Delete a directory tree; a missing path is a no-op. */
  def delete(path: String): Unit = {
    val p = Paths.get(path)
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
      finally s.close()
    }
  }
}
