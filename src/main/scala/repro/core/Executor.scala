package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.sparql.{Term, TriplePattern}

/** Bottom-up Join Tree execution over Spark DataFrames (Section 3.2):
  * every node yields a DataFrame whose columns are the variable names it
  * binds; children are computed first and joined into the parent on the
  * shared variables. Physical planning (join selection, exchanges) is left
  * entirely to Catalyst, as the paper prescribes (Section 3.3).
  */
final class Executor(vp: VpStore, pt: PropertyTable) {

  /** Execute a whole tree: returns a DataFrame with one column per
    * projected variable (bag semantics; `distinct` applied if requested).
    */
  def execute(tree: JoinTree): DataFrame =
    EvalCore.project(executeNode(tree.root), tree.projection, tree.distinct)

  /** Execute one node and fold in its children. */
  private def executeNode(node: JtNode): DataFrame = {
    val own = node match {
      case VpJtNode(tp, _) => EvalCore.bind(vp.tableFor(tp.p.value), tp)
      case pt: PtJtNode    => ptGroup(pt.patterns)
    }
    node.children.foldLeft(own)((acc, child) => EvalCore.joinShared(acc, executeNode(child)))
  }

  /** A same-subject group answered from one PT row — the join-free
    * sub-query the mixed strategy exists for. Each pattern's object reads
    * its predicate's column, or a NULL column for a predicate the PT
    * lacks. A list column is exploded into one row per element, so a
    * duplicated triple answers twice as in VP. `bind` does the rest: a
    * NULL, where the subject lacks a scalar predicate, binds nothing, and
    * a constant object is matched as on a VP table.
    */
  private[core] def ptGroup(patterns: Seq[TriplePattern]): DataFrame = {
    val (df, objects) = patterns.zipWithIndex.foldLeft((pt.df, Vector.empty[(Term, Column)])) {
      case ((df, objects), (tp, i)) =>
        val column = pt.column(tp.p.value).fold(lit(null).cast("string"))(col)
        val element = s"__pt_$i"
        if (pt.isList(tp.p.value)) (df.withColumn(element, explode(column)), objects :+ (tp.o -> col(element)))
        else (df, objects :+ (tp.o -> column))
    }
    EvalCore.bind(df, (patterns.head.s -> col("s")) +: objects)
  }
}
