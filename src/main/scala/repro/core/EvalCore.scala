package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.sparql.{Const, Term, TriplePattern, Var}

/** The evaluation steps PRoST and the baselines share: binding triple
  * patterns against the columns of a table, joining bindings on their shared
  * variables, the greedy connected join order, and the final projection.
  * Each engine supplies the table a pattern reads and the weight that
  * drives the order.
  */
object EvalCore {

  /** Bindings of `tp` over its `(s, o)` table. */
  def bind(table: DataFrame, tp: TriplePattern): DataFrame =
    bind(table, Seq(tp.s -> col("s"), tp.o -> col("o")))

  /** Bindings of one row's `(term, column)` positions: a constant becomes
    * an equality filter, a variable's first position its output column
    * named after it, and each later position of the same variable an
    * equality filter against that first one. A variable never binds NULL:
    * its first position also filters NULLs out, and every equality does.
    */
  def bind(table: DataFrame, positions: Seq[(Term, Column)]): DataFrame = {
    val (outputs, filters) = positions.foldLeft((Vector.empty[(Var, Column)], Vector.empty[Column])) {
      case ((out, fs), (v: Var, c)) => out.collectFirst { case (`v`, first) => first } match {
        case Some(first) => (out, fs :+ (c === first))
        case None        => (out :+ (v -> c), fs :+ c.isNotNull)
      }
      case ((out, fs), (k: Const, c)) => (out, fs :+ (c === k.value))
    }
    val filtered = filters.reduceOption(_ && _).fold(table)(table.where)
    // Positions without a variable bind nothing but still constrain: keep
    // a marker column so the row count (0 or 1) survives the projection.
    // No variable name holds a `-`, so no variable's column meets it.
    if (outputs.isEmpty) filtered.select(lit(true) as "ground-pattern")
    else filtered.select(outputs.map { case (v, c) => c as v.name }: _*)
  }

  /** Inner join on the columns both sides bind; a cross join when they
    * share none (only a disconnected BGP gets there).
    */
  def joinShared(acc: DataFrame, df: DataFrame): DataFrame = {
    val shared = acc.columns.toSeq.intersect(df.columns.toSeq)
    if (shared.isEmpty) acc.crossJoin(df) else acc.join(df, shared, "inner")
  }

  /** Greedy connected order: each step takes the lowest-`key` item that
    * shares a variable with the items already taken, or the lowest-`key`
    * item overall when none does (the first step, or a new component of a
    * disconnected BGP). Ties keep input order. Every item appears once.
    */
  def connectedOrder[A](items: Seq[A])(vars: A => Iterable[Var], key: A => Double): Seq[A] = {
    val remaining = scala.collection.mutable.ArrayBuffer(items: _*)
    val ordered = Vector.newBuilder[A]
    var bound = Set.empty[Var]
    while (remaining.nonEmpty) {
      val connected = remaining.indices.filter(i => vars(remaining(i)).exists(bound))
      val pool = if (connected.isEmpty) remaining.indices else connected
      val next = remaining.remove(pool.minBy(i => key(remaining(i))))
      ordered += next
      bound ++= vars(next)
    }
    ordered.result()
  }

  /** The weight both SPARQLGX and S2RDF order patterns by: the size of
    * the table `tp` reads, shrunk a hundredfold for a constant subject and
    * again for a constant object.
    */
  def constantWeight(tp: TriplePattern, size: Long): Double =
    Seq(tp.s, tp.o).filterNot(_.isVariable).foldLeft(size.toDouble)((w, _) => w * 0.01)

  /** The query's answer columns, deduplicated if it asked for `DISTINCT`. */
  def project(df: DataFrame, projection: Seq[Var], distinct: Boolean): DataFrame = {
    val out = df.select(projection.map(v => col(v.name)): _*)
    if (distinct) out.distinct() else out
  }
}
