package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.sparql.{Iri, Lit, TriplePattern, Var}

/** The evaluation steps PRoST and the baselines share: binding one triple
  * pattern against an `(s, o)` table, joining bindings on their shared
  * variables, the greedy connected join order, and the final projection.
  * Each engine supplies the table a pattern reads and the weight that
  * drives the order.
  */
object EvalCore {

  /** Bindings of `tp` over its `(s, o)` table: constants become filters, a
    * repeated variable (`?x p ?x`) an `s = o` filter, and every variable a
    * column named after it.
    */
  def bind(table: DataFrame, tp: TriplePattern): DataFrame = {
    val filtered = (tp.s, tp.o) match {
      case (sv: Var, ov: Var) if sv == ov => table.where(col("s") === col("o"))
      case _                               => table
    }
    val withS = tp.s match {
      case _: Var   => filtered
      case Iri(c)   => filtered.where(col("s") === c)
      case Lit(c)   => filtered.where(col("s") === c)
    }
    val withO = tp.o match {
      case _: Var   => withS
      case Iri(c)   => withS.where(col("o") === c)
      case Lit(c)   => withS.where(col("o") === c)
    }
    val cols = Seq(
      tp.s match { case Var(n) => Some(col("s") as n); case _ => None },
      tp.o match { case Var(n) if tp.o != tp.s => Some(col("o") as n); case _ => None },
    ).flatten
    // A fully-ground pattern binds nothing but still constrains: keep a
    // marker column so the row count (0 or 1) survives the projection.
    if (cols.isEmpty) withO.select(lit(true) as s"__ground_${tp.p.value.hashCode.abs}")
    else withO.select(cols: _*)
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

  /** The query's answer columns, deduplicated if it asked for `DISTINCT`. */
  def project(df: DataFrame, projection: Seq[Var], distinct: Boolean): DataFrame = {
    val out = df.select(projection.map(v => col(v.name)): _*)
    if (distinct) out.distinct() else out
  }
}
