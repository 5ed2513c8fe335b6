package repro.core

import java.nio.file.{Files, Paths}
import java.nio.charset.StandardCharsets
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.sparql.{BgpQuery, SparqlParser}

/** A loaded PRoST database: the two partitionings plus the load-time
  * statistics, with the full query path (parse → translate → execute).
  */
final class ProstDb(
    val spark: SparkSession,
    val vp: VpStore,
    val pt: PropertyTable,
    val stats: GraphStats,
) {
  private val translator = new Translator(stats)
  private val executor = new Executor(vp, pt)

  /** Translate a parsed BGP into the Join Tree (exposed for tests/benches). */
  def plan(query: BgpQuery, vpOnly: Boolean = false): JoinTree =
    translator.translate(query, vpOnly)

  /** Run a parsed BGP; `vpOnly = true` disables the Property Table (the
    * paper's Figure 2 baseline).
    */
  def query(query: BgpQuery, vpOnly: Boolean): DataFrame =
    executor.execute(plan(query, vpOnly))

  /** Parse and run a SPARQL string with the mixed VP + PT strategy. */
  def query(sparql: String): DataFrame =
    query(SparqlParser.parse(sparql), vpOnly = false)

  /** Parse and run a SPARQL string, optionally VP-only. */
  def query(sparql: String, vpOnly: Boolean): DataFrame =
    query(SparqlParser.parse(sparql), vpOnly)
}

/** PRoST loading phase: build both partitionings plus the statistics, in
  * memory (tests) or on disk (the paper's loading experiment, Table 1).
  */
object Prost {

  /** In-memory load: VP/PT are lazy views over `triples`. */
  def loadInMemory(triples: DataFrame): ProstDb = {
    val stats = GraphStats.compute(triples)
    new ProstDb(
      triples.sparkSession,
      VpStore.build(triples, stats),
      PropertyTable.build(triples, stats),
      stats,
    )
  }

  /** Full on-disk load under `dir`: VP Parquet tables, PT Parquet, stats
    * metadata. This is the code path timed by the Table 1 benchmark.
    */
  def writeTo(triples: DataFrame, dir: String): ProstDb = {
    val cached = triples.cache()
    val stats = GraphStats.compute(cached)
    VpStore.write(cached, stats, s"$dir/vp")
    PropertyTable.write(PropertyTable.build(cached, stats), s"$dir/pt")
    writeStats(stats, s"$dir/stats.tsv")
    cached.unpersist()
    loadFrom(triples.sparkSession, dir)
  }

  /** Open a database previously written by [[writeTo]]. */
  def loadFrom(spark: SparkSession, dir: String): ProstDb = {
    val stats = readStats(s"$dir/stats.tsv")
    val multi = stats.predicates.filter(stats(_).isMultiValued).toSet
    new ProstDb(
      spark,
      VpStore.load(spark, s"$dir/vp", stats.predicates),
      PropertyTable.load(spark, s"$dir/pt", stats.predicates, multi),
      stats,
    )
  }

  /** Persist the stats as TSV: predicate, tripleCount, distinctSubjects,
    * maxPerSubject (one line each). Local filesystem only, like all the
    * reproduction's storage. A predicate holding a tab or line break
    * cannot be written as one TSV field and is rejected.
    */
  def writeStats(stats: GraphStats, path: String): Unit = {
    stats.predicates.find(_.exists(c => c == '\t' || c == '\n' || c == '\r')).foreach { p =>
      throw new IllegalArgumentException(
        s"cannot write stats to $path: predicate ${escape(p)} contains a tab or line break")
    }
    val lines = stats.predicates.map { p =>
      val st = stats(p)
      s"$p\t${st.tripleCount}\t${st.distinctSubjects}\t${st.maxPerSubject}"
    }
    Files.createDirectories(Paths.get(path).getParent)
    Files.write(Paths.get(path), lines.asJava, StandardCharsets.UTF_8)
    ()
  }

  /** Read stats written by [[writeStats]]; a malformed line fails with its
    * path and line number.
    */
  def readStats(path: String): GraphStats = {
    val lines = Files.readAllLines(Paths.get(path), StandardCharsets.UTF_8).asScala
    val entries = lines.zipWithIndex.filter(_._1.nonEmpty).map { case (line, i) =>
      def malformed(why: String) =
        throw new IllegalArgumentException(s"$path:${i + 1}: $why: ${escape(line)}")
      line.split("\t", -1) match {
        case Array(p, c, d, m) =>
          (c.toLongOption, d.toLongOption, m.toLongOption) match {
            case (Some(c), Some(d), Some(m)) => p -> PredicateStats(p, c, d, m)
            case _ => malformed("counts must be integers")
          }
        case fields => malformed(s"expected 4 tab-separated fields, found ${fields.length}")
      }
    }
    GraphStats(entries.toMap)
  }

  /** `s` quoted, with tabs and line breaks shown as escapes. */
  private def escape(s: String): String =
    "\"" + s.replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r") + "\""
}
