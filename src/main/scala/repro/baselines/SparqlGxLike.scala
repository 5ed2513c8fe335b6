package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, concat_ws, lit}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

import repro.core.{EvalCore, GraphStats, Prost, Tsv}
import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, Const, TriplePattern, Var}

/** Behaviour-faithful SPARQLGX stand-in (Graux et al., ISWC 2016).
  *
  * What the paper credits/blames SPARQLGX for, and what we therefore model:
  *   - **Vertical Partitioning only** — one file per predicate, *plain
  *     compressed text* (`s \t o` lines, each term escaped as in
  *     N-Triples), which is why its footprint is the smallest in Table 1;
  *   - **compiles queries to direct Spark (RDD) operations, not Spark
  *     SQL** — no Catalyst, no columnar Parquet scans; joins are RDD
  *     `join`s over string pairs;
  *   - **its own statistics for join ordering** — per-predicate triple
  *     counts, selective (constant-carrying) patterns first, connectivity
  *     maintained greedily.
  */
final class SparqlGxLike(data: DataFrame, stats: GraphStats) {

  /** One predicate's `(s, o)` pairs: partition pruning limits the read to
    * its own gzip files (none for an unknown predicate); from there on
    * everything is RDD-level, as in SPARQLGX's generated code.
    */
  private def tableFor(predicate: String): RDD[(String, String)] =
    data.where(stats.rowsOf(predicate, col("p"))).select("value").rdd.map { r =>
      val line = r.getString(0)
      val i = line.indexOf('\t')
      (Tsv.decode(line.substring(0, i)), Tsv.decode(line.substring(i + 1)))
    }

  /** SPARQLGX's join ordering: ascending estimated size; constants shrink
    * the estimate sharply; each next pattern must share a variable with
    * the already-joined set when possible.
    */
  private[baselines] def orderPatterns(patterns: Seq[TriplePattern]): Seq[TriplePattern] =
    EvalCore.connectedOrder(patterns)(_.variables,
      tp => EvalCore.constantWeight(tp, stats(tp.p.value).tripleCount))

  /** One pattern's bindings, position by position as in `EvalCore.bind`: a
    * variable binds or must repeat its value, and a constant must equal it.
    */
  private def evalPattern(tp: TriplePattern): RDD[Map[String, String]] =
    tableFor(tp.p.value).flatMap { case (s, o) =>
      Seq(tp.s -> s, tp.o -> o).foldLeft(Option(Map.empty[String, String])) { case (acc, (term, value)) =>
        acc.flatMap(m => term match {
          case Var(n)   => Option.when(m.getOrElse(n, value) == value)(m + (n -> value))
          case c: Const => Option.when(c.value == value)(m)
        })
      }
    }

  /** Join two binding RDDs on their shared variables (RDD-level, as
    * SPARQLGX's generated code does); cartesian when disjoint.
    */
  private def joinBindings(
      left: RDD[Map[String, String]], leftVars: Set[String],
      right: RDD[Map[String, String]], rightVars: Set[String],
  ): RDD[Map[String, String]] = {
    val shared = leftVars.intersect(rightVars).toSeq.sorted
    if (shared.isEmpty) left.cartesian(right).map { case (a, b) => a ++ b }
    else {
      val l = left.keyBy(m => shared.map(m))
      val r = right.keyBy(m => shared.map(m))
      l.join(r).values.map { case (a, b) => a ++ b }
    }
  }

  /** Run a query; result is converted to a DataFrame (string columns named
    * after the projected variables) purely for comparison with the oracle.
    */
  def query(q: BgpQuery): DataFrame = {
    val (acc, _) = orderPatterns(q.patterns)
      .map(tp => (evalPattern(tp), tp.variables.map(_.name).toSet))
      .reduceLeft[(RDD[Map[String, String]], Set[String])] { case ((acc, accVars), (rdd, vars)) =>
        (joinBindings(acc, accVars, rdd, vars), accVars ++ vars)
      }
    val proj = q.effectiveProjection.map(_.name)
    val rows = acc.map(m => Row.fromSeq(proj.map(m)))
    val schema = StructType(proj.map(StructField(_, StringType)))
    val df = data.sparkSession.createDataFrame(rows, schema)
    if (q.distinct) df.distinct() else df
  }
}

object SparqlGxLike {

  /** SPARQLGX loading phase: per-predicate gzip **text** directories `p=<id>`
    * (one partitioned write) + a stats file. This is the path
    * timed/measured for Table 1, with the opened store it returns; text is
    * what keeps SPARQLGX's footprint the smallest.
    */
  def writeTo(triples: DataFrame, dir: String): SparqlGxLike = {
    TripleOps.withCached(triples) { cached =>
      val stats = GraphStats.compute(cached)
      cached
        .select(concat_ws("\t", Tsv.encode(col("s")), Tsv.encode(col("o"))) as "value",
          stats.idOf(col("p")) as "p")
        .repartition(col("p"))
        .write.mode("overwrite").partitionBy("p").option("compression", "gzip")
        .text(s"$dir/data")
      Prost.writeStats(stats, s"$dir/stats.tsv")
    }
    loadFrom(triples.sparkSession, dir)
  }

  /** Open a store written by [[writeTo]]; the schema is given, so opening
    * it infers nothing from the directory names.
    */
  def loadFrom(spark: SparkSession, dir: String): SparqlGxLike = {
    val stats = Prost.readStats(s"$dir/stats.tsv")
    // An empty graph has no `p=<id>` directory, without which the text
    // reader takes `p` for a text column and rejects its type.
    new SparqlGxLike(
      if (stats.predicates.isEmpty) spark.emptyDataFrame.select(lit("") as "value", lit(0) as "p")
      else spark.read.schema("value STRING, p INT").text(s"$dir/data"), stats)
  }
}
