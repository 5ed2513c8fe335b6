package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The Property Table half of the PRoST data model (Wilkinson's Jena2
  * scheme): a single wide table with one row per distinct subject and one
  * column per predicate.
  *
  *   - single-valued predicates become scalar string columns (NULL when the
  *     subject lacks the predicate);
  *   - multi-valued predicates become `array<string>` columns (empty array
  *     when absent), flattened with `explode` at query time — the overhead
  *     the paper accepts in exchange for saving joins;
  *   - the table is horizontally partitioned on the subject column before
  *     writing, the paper's trick to keep each subject's row on one node;
  *   - Parquet's run-length encoding absorbs the NULL-heavy layout.
  *
  * @param df    the wide table; column `s` plus one column per predicate
  * @param stats the graph's stats, which name each column and say which
  *              are lists
  */
final case class PropertyTable(df: DataFrame, stats: GraphStats) {

  /** `p`'s column `p<id>` (see [[GraphStats]]); none if the graph lacks `p`. */
  def column(p: String): Option[String] = stats.ids.get(p).map(id => s"p$id")

  /** True if `p`'s column is a list: some subject holds several objects. */
  def isList(p: String): Boolean = stats(p).isMultiValued
}

object PropertyTable {

  /** Build the PT with a single aggregation pass — one
    * `collect_list(struct(p, o))` per subject, then row-local array
    * filters to split it into per-predicate columns. One shuffle total,
    * which is what makes the paper's loading phase cheap ("without any
    * significant overhead").
    */
  def build(triples: DataFrame, stats: GraphStats): PropertyTable = {
    val wide = triples.groupBy(col("s"))
      .agg(collect_list(struct(col("p"), col("o"))) as "__props")
    val layout = PropertyTable(wide, stats)
    layout.copy(df = wide.select(
      col("s") +: stats.predicates.map { p =>
        val values = transform(
          filter(col("__props"), x => x.getField("p") === p),
          x => x.getField("o"))
        // a scalar column is NULL when the subject lacks the predicate
        (if (layout.isList(p)) values else try_element_at(values, lit(1))).as(layout.column(p).get)
      }: _*
    ))
  }

  /** Write the PT as Parquet. The paper's horizontal partitioning on the
    * subject column is already satisfied: `groupBy(s)` hash-partitions the
    * wide table by subject, so every subject's row lands whole in one
    * partition file.
    */
  def write(pt: PropertyTable, dir: String): Unit =
    pt.df.write.mode("overwrite").parquet(dir)

  /** Load a PT written by [[write]]; its layout comes from the stats
    * persisted alongside.
    */
  def load(spark: SparkSession, dir: String, stats: GraphStats): PropertyTable =
    PropertyTable(spark.read.parquet(dir), stats)
}
