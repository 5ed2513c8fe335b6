package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, SparqlParser}

/** A loaded PRoST database: the two partitionings plus the load-time
  * statistics, with the full query path (parse → translate → execute).
  */
final class ProstDb(
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

  /** Parse and run a SPARQL string, optionally VP-only. */
  def query(sparql: String, vpOnly: Boolean): DataFrame =
    query(SparqlParser.parse(sparql), vpOnly)
}

/** PRoST loading phase: build both partitionings plus the statistics and
  * write them under one directory (the paper's loading experiment,
  * Table 1); [[Prost.loadFrom]] opens what was written.
  */
object Prost {

  /** Full on-disk load under `dir`: VP Parquet tables, PT Parquet, stats
    * metadata, then the opened store: the code path Table 1 times.
    */
  def writeTo(triples: DataFrame, dir: String): ProstDb = {
    TripleOps.withCached(triples) { cached =>
      val stats = GraphStats.compute(cached)
      VpStore.write(cached, stats, s"$dir/vp")
      PropertyTable.write(PropertyTable.build(cached, stats), s"$dir/pt")
      writeStats(stats, s"$dir/stats.tsv")
    }
    loadFrom(triples.sparkSession, dir)
  }

  /** Open a database previously written by [[writeTo]]. */
  def loadFrom(spark: SparkSession, dir: String): ProstDb = {
    val stats = readStats(s"$dir/stats.tsv")
    new ProstDb(
      VpStore.load(spark, s"$dir/vp", stats),
      PropertyTable.load(spark, s"$dir/pt", stats),
      stats,
    )
  }

  /** Persist the stats as TSV: predicate, tripleCount, distinctSubjects
    * (one line each, in id order).
    */
  def writeStats(stats: GraphStats, path: String): Unit =
    Tsv.write(path, stats.predicates.map { p =>
      val st = stats(p)
      Seq(p, st.tripleCount.toString, st.distinctSubjects.toString)
    })

  /** Read stats written by [[writeStats]]; a malformed line fails with its
    * path and line number.
    */
  def readStats(path: String): GraphStats =
    GraphStats(Tsv.read(path, 3) { case Array(p, c, d) =>
      (c.toLongOption, d.toLongOption) match {
        case (Some(c), Some(d)) => Right(p -> PredicateStats(c, d))
        case _ => Left("counts must be integers")
      }
    }.toMap)
}
