package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.sparql.{Iri, Lit, TriplePattern, Term, Var}

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
      case VpJtNode(tp, _)           => EvalCore.bind(vp.tableFor(tp.p.value), tp)
      case PtJtNode(subject, ps, _)  => ptGroup(subject, ps)
    }
    node.children.foldLeft(own)((acc, child) => EvalCore.joinShared(acc, executeNode(child)))
  }

  /** A same-subject group answered with selects/explodes on the PT — the
    * join-free sub-query the mixed strategy exists for.
    */
  private[core] def ptGroup(subject: Term, patterns: Seq[TriplePattern]): DataFrame = {
    var df = pt.df
    // Subject handling first: constant -> filter, variable -> bind later.
    subject match {
      case _: Var => ()
      case Iri(c) => df = df.where(col("s") === c)
      case Lit(c) => df = df.where(col("s") === c)
    }

    // Bind each pattern's object; `boundAt` maps a variable to the column
    // currently holding it, to translate repeated variables into filters.
    val subjectVar = subject match { case v: Var => Some(v); case _ => None }
    var boundAt: Map[Var, String] = subjectVar.map(_ -> "s").toMap
    var outCols: Vector[(String, String)] = // (current column, output name)
      subjectVar.map(v => ("s", v.name)).toVector

    patterns.zipWithIndex.foreach { case (tp, i) =>
      val predicate = tp.p.value
      if (!pt.hasColumn(predicate)) {
        // Unknown predicate: the whole group is empty, but the object
        // variable must still exist as a (never-populated) column so the
        // final projection resolves.
        df = df.where(lit(false))
        tp.o match {
          case v: Var if !boundAt.contains(v) =>
            val out = s"__pt_$i"
            df = df.withColumn(out, lit(null).cast("string"))
            boundAt += v -> out
            outCols :+= (out, v.name)
          case _ => ()
        }
      } else {
        val colName = pt.columnFor(predicate)
        val multi = pt.multiValued.contains(predicate)
        tp.o match {
          case v: Var =>
            boundAt.get(v) match {
              case Some(prev) =>
                // Variable already bound in this group: equality filter.
                if (multi) df = df.where(array_contains(col(colName), col(prev)))
                else df = df.where(col(colName) === col(prev))
              case None =>
                val out = s"__pt_$i"
                if (multi) df = df.withColumn(out, explode(col(colName)))
                else df = df.where(col(colName).isNotNull).withColumn(out, col(colName))
                boundAt += v -> out
                outCols :+= (out, v.name)
            }
          case Iri(c) =>
            df = if (multi) df.where(array_contains(col(colName), c))
                 else df.where(col(colName) === c)
          case Lit(c) =>
            df = if (multi) df.where(array_contains(col(colName), c))
                 else df.where(col(colName) === c)
        }
      }
    }

    if (outCols.isEmpty)
      df.select(lit(true) as s"__ground_pt_${patterns.head.p.value.hashCode.abs}")
    else
      df.select(outCols.map { case (c, out) => col(c) as out }: _*)
  }
}
