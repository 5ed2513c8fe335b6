package repro.harness

import java.nio.file.Paths

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.{Prost, ProstDb}
import repro.rdf.TripleOps
import repro.sparql.BgpQuery
import repro.util.Timing
import repro.watdiv.{WatDivGen, WatDivQueries}

/** The paper's evaluation harness (Section 4), shared by the
  * `bench/` ScalaTest suites and the `jobs/` spark-submit entrypoints.
  *
  * All four systems load from the same tab-separated source file (standing
  * in for the N-Triples dump on HDFS) into their own on-disk layout; load
  * time and on-disk size give Table 1, per-query wall-clock gives Table 2
  * and the Figure 2 comparison. Every load and every query run happens at
  * most once per env.
  */
final class BenchEnv(val spark: SparkSession, val scale: Double, baseDir: String) {
  import BenchEnv._

  private val sourceDir = s"$baseDir/source"

  /** The source dump, generated once (not part of any system's load time). */
  private lazy val sourcePath: String = {
    val triples = WatDivGen.generate(spark, scale)
    TripleOps.writeText(triples, sourceDir)
    sourceDir
  }

  /** A fresh, un-cached read of the source dump — every system's loading
    * phase starts here, like reading N-Triples off HDFS.
    */
  private def freshTriples: DataFrame = TripleOps.readText(spark, sourcePath)

  /** One-time, untimed warm-up of Spark's shuffle/Parquet/text machinery,
    * so first-use JIT and codegen costs do not land on whichever system
    * happens to load first (the paper's cluster timings measure steady
    * state, not JVM warm-up).
    */
  private lazy val warmedUp: Unit = {
    val warmDir = s"$baseDir/warmup"
    spark.range(1000)
      .selectExpr("cast(id as string) as s", "'p' as p", "cast(id % 7 as string) as o")
      .repartition(org.apache.spark.sql.functions.col("o"))
      .write.mode("overwrite").partitionBy("o").parquet(warmDir)
    spark.read.parquet(warmDir).count()
    freshTriples.count()
    ()
  }

  /** One system's Table 1 load: the wall time of its `writeTo`, which
    * writes the store into `<baseDir>/<system lower-cased>` and opens it
    * once, and the bytes written there.
    */
  private def load[A](system: String)(writeTo: (DataFrame, String) => A): (A, LoadReport) = {
    warmedUp
    val dir = s"$baseDir/${system.toLowerCase}"
    val (store, ms) = Timing.timed(writeTo(freshTriples, dir))
    (store, LoadReport(system, Timing.dirBytes(Paths.get(dir)), ms))
  }

  lazy val prostLoad: (ProstDb, LoadReport) = load("PRoST")(Prost.writeTo)
  lazy val gxLoad: (SparqlGxLike, LoadReport) = load("SPARQLGX")(SparqlGxLike.writeTo)
  lazy val s2rdfLoad: (S2RdfLike, LoadReport) = load("S2RDF")(S2RdfLike.writeTo)
  lazy val ryaLoad: (RyaLike, LoadReport) = load("Rya")(RyaLike.writeTo)

  /** Table 1 rows, in the paper's order. */
  lazy val loadReports: Seq[LoadReport] =
    Seq(prostLoad._2, gxLoad._2, s2rdfLoad._2, ryaLoad._2)

  // ---- querying ----------------------------------------------------------

  /** The whole basic set through `run`, each query timed end to end (plan +
    * execute + count the result), after one small warm-up query so
    * JIT/classloading noise lands outside the measurements.
    */
  private def timeQueries(run: BgpQuery => DataFrame): Seq[QueryTiming] = {
    run(WatDivQueries.L3.query).count() // warm-up
    WatDivQueries.All.map { nq =>
      val (rows, ms) = Timing.timed(run(nq.query).count())
      QueryTiming(nq.name, nq.group, ms, rows)
    }
  }

  /** PRoST's timings with each strategy: the two sides of Figure 2. */
  lazy val prostMixed: Seq[QueryTiming] = timeQueries(prostLoad._1.query(_, vpOnly = false))
  lazy val prostVpOnly: Seq[QueryTiming] = timeQueries(prostLoad._1.query(_, vpOnly = true))

  /** Table 2 columns, in the paper's order. */
  lazy val querySystems: Seq[(String, Seq[QueryTiming])] = Seq(
    "PRoST"    -> prostMixed,
    "S2RDF"    -> timeQueries(s2rdfLoad._1.query),
    "Rya"      -> timeQueries(ryaLoad._1.query),
    "SPARQLGX" -> timeQueries(gxLoad._1.query),
  )

  // ---- formatted tables --------------------------------------------------

  /** Table 1 printout with the paper's WatDiv100M numbers alongside. */
  def table1: String = {
    val header = f"${"System"}%-10s ${"Size"}%12s ${"Time"}%12s   paper: size / time (WatDiv100M)"
    val rows = loadReports.map { r =>
      val (ps, pt) = PaperTable1(r.system)
      f"${r.system}%-10s ${Timing.humanBytes(r.bytes)}%12s ${Timing.humanMillis(r.millis)}%12s   $ps / $pt"
    }
    (s"== Table 1: size and loading time (scale=$scale) ==" +: header +: rows).mkString("\n")
  }

  /** Table 2 printout: average per group for each system + paper numbers. */
  def table2: String = {
    val header = f"${"Queries"}%-10s" + querySystems.map { case (n, _) => f"$n%12s" }.mkString +
      "   paper(ms): " + querySystems.map(_._1).mkString("/")
    val rows = Seq("C", "F", "L", "S").map { g =>
      val name = WatDivQueries.GroupNames(g)
      val cells = querySystems.map { case (_, ts) => f"${groupAverages(ts)(g)}%12.0f" }.mkString
      val paper = querySystems.map { case (n, _) => PaperTable2(g)(n) }.mkString("/")
      f"$name%-10s$cells   $paper"
    }
    (s"== Table 2: average querying time in ms by query group (scale=$scale) ==" +:
      header +: rows).mkString("\n")
  }

  /** Figure 2 as a table: per-query VP-only vs mixed. */
  def figure2: String = {
    val header = f"${"Query"}%-8s${"VP-only"}%10s${"Mixed"}%10s${"speedup"}%10s"
    val rows = prostVpOnly.zip(prostMixed).map { case (v, m) =>
      f"${v.query}%-8s${v.millis}%10d${m.millis}%10d${v.millis.toDouble / math.max(1, m.millis)}%10.2f"
    }
    (s"== Figure 2 companion: VP-only vs mixed strategy, per query (scale=$scale) ==" +:
      header +: rows).mkString("\n")
  }
}

object BenchEnv {

  final case class LoadReport(system: String, bytes: Long, millis: Long)

  final case class QueryTiming(query: String, group: String, millis: Long, rows: Long)

  /** Average milliseconds per query group, keyed by group letter. */
  def groupAverages(ts: Seq[QueryTiming]): Map[String, Double] =
    ts.groupBy(_.group).view.mapValues(g => g.map(_.millis).sum.toDouble / g.size).toMap

  /** The one scale setting of the benchmark: default 6 (~800k triples). */
  val ScaleVariable = "WATDIV_BENCH_SCALE"

  /** Build against `target/bench` with the environment-selected scale. */
  def default(spark: SparkSession): BenchEnv =
    new BenchEnv(spark, sys.env.get(ScaleVariable).map(_.toDouble).getOrElse(6.0), "target/bench")

  /** The `jobs/` entrypoints take no arguments: the scale comes only from
    * [[ScaleVariable]].
    */
  def requireNoArgs(args: Array[String]): Unit =
    require(args.isEmpty,
      s"unexpected arguments '${args.mkString(" ")}': set the WatDiv scale with $ScaleVariable=<n>")

  /** Paper Table 1 (WatDiv100M): system -> (size, loading time). */
  val PaperTable1: Map[String, (String, String)] = Map(
    "PRoST"    -> ("2.1 GB", "25m 32s"),
    "SPARQLGX" -> ("0.9 GB", "20m 01s"),
    "S2RDF"    -> ("6.2 GB", "3h 11m 44s"),
    "Rya"      -> ("3.1 GB", "41m 32s"),
  )

  /** Paper Table 2 (ms, WatDiv100M): group letter -> system -> average.
    * The Star row of the printed paper reads "6,9606" and "2,1046"; these
    * are typeset glitches for 69,606 and 21,046 (consistent with Figure 3's
    * log-scale bars).
    */
  val PaperTable2: Map[String, Map[String, Long]] = Map(
    "C" -> Map("PRoST" -> 9364L, "S2RDF" -> 3392L, "Rya" -> 2195322L, "SPARQLGX" -> 61363L),
    "F" -> Map("PRoST" -> 5923L, "S2RDF" -> 1564L, "Rya" -> 369016L, "SPARQLGX" -> 24046L),
    "L" -> Map("PRoST" -> 2419L, "S2RDF" -> 527L, "Rya" -> 49044L, "SPARQLGX" -> 18254L),
    "S" -> Map("PRoST" -> 1195L, "S2RDF" -> 884L, "Rya" -> 69606L, "SPARQLGX" -> 21046L),
  )
}
