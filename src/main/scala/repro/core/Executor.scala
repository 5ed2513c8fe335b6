package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.sparql.{Const, Term, TriplePattern, Var}

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
    * its predicate's column: a scalar column without its NULL rows, and a
    * NULL column for a predicate the PT lacks, which the NULL filter turns
    * into the empty group. A list column gives one row per element: every
    * element for a variable object; for a constant object, the rows whose
    * list holds it (`array_contains`), each once per listed copy, so a
    * duplicated triple answers twice as in VP. `bind` does the rest.
    */
  private[core] def ptGroup(patterns: Seq[TriplePattern]): DataFrame = {
    val (df, objects) = patterns.zipWithIndex.foldLeft((pt.df, Vector.empty[(Term, Column)])) {
      case ((df, objects), (tp, i)) =>
        val column = pt.column(tp.p.value).fold(lit(null).cast("string"))(col)
        val element = s"__pt_$i"
        (pt.isList(tp.p.value), tp.o) match {
          case (false, o) => (df.where(column.isNotNull), objects :+ (o -> column))
          case (true, o: Var) => (df.withColumn(element, explode(column)), objects :+ (o -> col(element)))
          case (true, c: Const) =>
            (df.where(array_contains(column, c.value))
               .withColumn(element, explode(filter(column, _ === c.value))), objects)
        }
    }
    EvalCore.bind(df, (patterns.head.s -> col("s")) +: objects)
  }
}
