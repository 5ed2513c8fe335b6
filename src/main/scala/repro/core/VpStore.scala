package repro.core

import org.apache.spark.sql.{DataFrame, DataFrameReader, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** The Vertical Partitioning half of the PRoST data model: one `(s, o)`
  * table per distinct predicate (Abadi et al. 2007), Parquet on disk.
  *
  * `all` is the whole partitioned store; `tableFor` prunes it to one
  * predicate's partition. A predicate absent from the graph has no
  * partition, so its table is empty and a query naming it evaluates to
  * the empty result instead of failing — matching SPARQL semantics.
  */
final class VpStore(all: DataFrame) {

  /** The `(s, o)` table of `predicate` (empty if unknown). */
  def tableFor(predicate: String): DataFrame =
    all.where(col("p") === predicate).select("s", "o")
}

object VpStore {

  /** Write the VP layout — one Parquet directory per predicate — in a
    * single partitioned pass (`partitionBy("p")`), the way a real loader
    * shuffles once instead of running one job per predicate.
    */
  def write(triples: DataFrame, stats: GraphStats, dir: String): Unit = {
    requirePartitionable(stats, dir)
    triples.select("s", "o", "p").repartition(col("p"))
      .write.mode("overwrite").partitionBy("p").parquet(dir)
  }

  /** Load a store written by [[write]]. */
  def load(spark: SparkSession, dir: String): VpStore =
    new VpStore(readAsStrings(spark, "s", "o", "p").parquet(dir))

  /** A reader of a store partitioned by predicate, with every column a
    * string. Left to infer them, Spark types partition columns from the
    * directory names: when every predicate looks like a number, `p` reads
    * back as an integer and `p = '01'` also selects `p=1`.
    */
  def readAsStrings(spark: SparkSession, columns: String*): DataFrameReader =
    spark.read.schema(StructType(columns.map(StructField(_, StringType))))

  /** Reject a graph with a predicate no partition directory can name:
    * Spark writes the empty string as its default partition, and reads
    * that partition's name back as NULL, so those triples would silently
    * vanish.
    */
  def requirePartitionable(stats: GraphStats, dir: String): Unit =
    Seq("", "__HIVE_DEFAULT_PARTITION__").find(stats.hasPredicate).foreach { p =>
      throw new IllegalArgumentException(
        s"cannot write $dir: predicate ${Tsv.escape(p)} cannot name a partition directory")
    }
}
