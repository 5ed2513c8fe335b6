package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** The Vertical Partitioning half of the PRoST data model: one `(s, o)`
  * table per distinct predicate (Abadi et al. 2007), Parquet on disk.
  *
  * `all` is the whole store, partitioned by predicate id (see
  * [[GraphStats]]); `tableFor` prunes it to one predicate's partition. A
  * predicate absent from the graph has no id, so its table is empty and a
  * query naming it evaluates to the empty result instead of failing —
  * matching SPARQL semantics.
  */
final class VpStore(all: DataFrame, stats: GraphStats) {

  /** The `(s, o)` table of `predicate` (empty if unknown). */
  def tableFor(predicate: String): DataFrame =
    all.where(stats.rowsOf(predicate, col("p"))).select("s", "o")
}

object VpStore {

  /** Write the VP layout — one Parquet directory `p=<id>` per predicate —
    * in a single partitioned pass (`partitionBy("p")`), the way a real
    * loader shuffles once instead of running one job per predicate.
    */
  def write(triples: DataFrame, stats: GraphStats, dir: String): Unit =
    triples.select(col("s"), col("o"), stats.idOf(col("p")) as "p").repartition(col("p"))
      .write.mode("overwrite").partitionBy("p").parquet(dir)

  /** Load a store written by [[write]] with the same stats. The schema is
    * given, so opening it infers nothing from the directory names.
    */
  def load(spark: SparkSession, dir: String, stats: GraphStats): VpStore =
    new VpStore(spark.read.schema("s STRING, o STRING, p INT").parquet(dir), stats)
}
