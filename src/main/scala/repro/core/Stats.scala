package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Per-predicate statistics, exactly the two measures the paper gathers at
  * load time (Section 3.3): "(1) the total number of triples and (2) the
  * number of distinct subjects for each predicate".
  */
final case class PredicateStats(tripleCount: Long, distinctSubjects: Long) {

  /** True if at least one subject holds several objects for this predicate:
    * the per-subject counts sum to `tripleCount` over `distinctSubjects`
    * subjects, so they exceed it exactly when some subject counts twice.
    */
  def isMultiValued: Boolean = tripleCount > distinctSubjects
}

/** Statistics for a whole graph, keyed by predicate. They also name every
  * predicate on disk: a predicate's id is its index in [[predicates]], and
  * the stores write the id where they would write the predicate (partition
  * `p=<id>`, Property Table column `p<id>`), so any string, however long
  * or odd, is a legal predicate. `stats.tsv` lists the predicates in that
  * order, so line n holds id n - 1.
  */
final case class GraphStats(byPredicate: Map[String, PredicateStats]) {

  /** Stats for `predicate`; zero-stats if the predicate never occurs. */
  def apply(predicate: String): PredicateStats =
    byPredicate.getOrElse(predicate, GraphStats.Absent)

  /** All predicates, sorted: the order of their ids. */
  lazy val predicates: Seq[String] = byPredicate.keys.toSeq.sorted

  /** Each predicate's id. */
  lazy val ids: Map[String, Int] = predicates.zipWithIndex.toMap

  /** The id of the predicate in column `p`, row by row: a lookup in a
    * literal map, so mapping a table adds no join and no shuffle.
    */
  def idOf(p: Column): Column = element_at(typedLit(ids), p)

  /** Rows whose id column `id` holds `predicate`'s id; none for a
    * predicate the graph lacks.
    */
  def rowsOf(predicate: String, id: Column): Column =
    ids.get(predicate).fold(lit(false))(id === _)

  /** Total number of triples in the graph. */
  def totalTriples: Long = byPredicate.valuesIterator.map(_.tripleCount).sum
}

object GraphStats {

  /** The stats of a predicate the graph lacks. */
  private val Absent = PredicateStats(0L, 0L)

  /** Compute the statistics in a single aggregation pass over the graph.
    * The result is collected to the driver: the predicate set of an RDF
    * schema is small (tens of entries), as in the paper's setting.
    */
  def compute(triples: DataFrame): GraphStats = {
    val rows = triples
      .groupBy("p", "s").agg(count(lit(1)) as "per_subject")
      .groupBy("p").agg(
        sum("per_subject") as "triple_count",
        count(lit(1))      as "distinct_subjects",
      )
      .collect()
    GraphStats(rows.map(r => r.getString(0) -> PredicateStats(r.getLong(1), r.getLong(2))).toMap)
  }
}
