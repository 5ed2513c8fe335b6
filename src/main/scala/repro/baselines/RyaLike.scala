package repro.baselines

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.EvalCore
import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, TriplePattern}
import repro.util.Timing

/** Behaviour-faithful Rya stand-in (Punnoose et al., 2012).
  *
  * Rya stores whole triples as Accumulo keys in three sorted index
  * layouts (SPO, POS, OSP), so point and short-range lookups are very
  * fast. Its weakness — the one the paper measures — is join processing:
  * Accumulo has no in-memory distributed join pipeline, so each join step
  * materialises its intermediate result before the next begins.
  *
  * We model exactly those two properties:
  *   - three sorted copies of the triple table ("indexes"); each pattern
  *     reads the copy matching its bound positions;
  *   - pattern-at-a-time execution where **every intermediate result is
  *     written to and re-read from disk** before the next join — fast when
  *     intermediates are tiny (Rya's good queries), disastrous when they
  *     are not (C/F queries in the paper).
  */
final class RyaLike(
    spark: SparkSession,
    indexes: Map[String, DataFrame], // "spo" | "pos" | "osp" -> (s, p, o)
    private[baselines] val scratchDir: String,
) {

  /** Rya-style index selection from the pattern's bound positions. */
  private[baselines] def indexFor(tp: TriplePattern): String =
    if (!tp.s.isVariable) "spo"
    else if (!tp.o.isVariable) "osp"
    else "pos" // predicate is always bound in our fragment

  /** Bindings DataFrame for one pattern via an index lookup. */
  private def evalPattern(tp: TriplePattern): DataFrame =
    EvalCore.bind(indexes(indexFor(tp)).where(col("p") === tp.p.value), tp)

  /** Rya's join reordering: constant-bearing patterns first, then query
    * order, keeping connectivity when possible.
    */
  private[baselines] def orderPatterns(patterns: Seq[TriplePattern]): Seq[TriplePattern] =
    EvalCore.connectedOrder(patterns)(_.variables, tp => -Seq(tp.s, tp.o).count(!_.isVariable).toDouble)

  /** Materialise a DataFrame to the scratch dir and read it back — the
    * disk round-trip that models Accumulo's join pipeline. Once a step is
    * written nothing reads the step before it, so that one is deleted.
    */
  private def materialize(df: DataFrame, step: Int, queryId: String): DataFrame = {
    val path = s"$scratchDir/$queryId/step_$step"
    df.write.mode("overwrite").parquet(path)
    Timing.deleteTree(Paths.get(s"$scratchDir/$queryId/step_${step - 1}"))
    spark.read.parquet(path)
  }

  /** Run a query pattern-at-a-time with disk-materialised intermediates. */
  def query(q: BgpQuery): DataFrame = {
    val queryId = java.util.UUID.randomUUID().toString
    val ordered = orderPatterns(q.patterns)
    val joined = ordered.tail.zipWithIndex.foldLeft(evalPattern(ordered.head)) {
      case (acc, (tp, i)) => EvalCore.joinShared(materialize(acc, i, queryId), evalPattern(tp))
    }
    EvalCore.project(joined, q.effectiveProjection, q.distinct)
  }
}

object RyaLike {

  private val IndexNames = Seq("spo", "pos", "osp")

  /** Rya loading phase (Table 1): three sorted Parquet copies, opened. */
  def writeTo(triples: DataFrame, dir: String): RyaLike = {
    TripleOps.withCached(triples) { cached =>
      def sorted(cols: String*): DataFrame =
        cached.repartition(col(cols.head)).sortWithinPartitions(cols.map(col): _*)
      sorted("s", "p", "o").write.mode("overwrite").parquet(s"$dir/spo")
      sorted("p", "o", "s").write.mode("overwrite").parquet(s"$dir/pos")
      sorted("o", "s", "p").write.mode("overwrite").parquet(s"$dir/osp")
    }
    loadFrom(triples.sparkSession, dir)
  }

  /** Open a store written by [[writeTo]]; its scratch directory is
    * deleted when the JVM exits.
    */
  def loadFrom(spark: SparkSession, dir: String): RyaLike = {
    val scratch = Files.createTempDirectory("rya-scratch")
    sys.addShutdownHook(Timing.deleteTree(scratch))
    val idx = IndexNames.map(n => n -> spark.read.parquet(s"$dir/$n")).toMap
    new RyaLike(spark, idx, scratch.toString)
  }
}
