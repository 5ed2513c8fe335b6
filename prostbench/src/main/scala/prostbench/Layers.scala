package prostbench

import java.nio.file.Paths

import org.apache.spark.sql.{DataFrame, Row}

import repro.core.{Executor, GraphStats, JoinTree, PropertyTable, Prost, ProstDb, VpStore}
import repro.rdf.TripleOps
import repro.sparql.SparqlParser
import repro.util.Timing

/** What a traced query request left behind, besides its spans. */
final case class QueryTrace(id: String, inst: Instance, rows: Long, plan: PlanCounters.Counts, shape: JtShape, gcMs: Long)

/** What a traced load left behind, besides its spans. */
final case class LoadTrace(id: String, vpBytes: Long, ptBytes: Long, storeBytes: Long, gcMs: Long)

/** The program's public layer calls, made one at a time and each inside a
  * span, in the order `ProstDb.query` and `Prost.writeTo` compose them.
  * The untraced runs call those two functions directly; if their
  * composition changes, these sequences must follow it.
  */
object Layers {

  /** `ProstDb.query(sparql, vpOnly)` followed by `collect()`, traced. */
  def query(ctx: Ctx, db: ProstDb, executor: Executor, id: String, inst: Instance, vpOnly: Boolean): (Array[Row], DataFrame, QueryTrace) = {
    val t = ctx.tracer
    ctx.counters.inGroup(id) {
      t.request(id, "query") {
        val parsed = t.span("sparql.parse")(SparqlParser.parse(inst.sparql))
        val tree: JoinTree = t.span("core.translate")(db.plan(parsed, vpOnly))
        val df = t.span("core.build")(executor.execute(tree))
        t.span("spark.plan")(df.queryExecution.executedPlan)
        val gc0 = Jvm.gcMs
        val rows = t.span("spark.exec")(df.collect())
        val trace = QueryTrace(id, inst, rows.length.toLong,
          PlanCounters.executed(df.queryExecution.executedPlan), JtShape.of(tree), Jvm.gcMs - gc0)
        (rows, df, trace)
      }
    }
  }

  /** `Prost.writeTo(TripleOps.readText(source), dir)`, traced. */
  def load(ctx: Ctx, source: String, dir: String, id: String): (ProstDb, LoadTrace) = {
    val t = ctx.tracer
    val spark = ctx.spark
    val gc0 = Jvm.gcMs
    val db = ctx.counters.inGroup(id) {
      t.request(id, "load") {
        val cached = TripleOps.readText(spark, source).cache()
        val stats = t.span("core.stats")(GraphStats.compute(cached))
        t.span("core.vp_write")(VpStore.write(cached, stats, s"$dir/vp"))
        t.span("core.pt_write")(PropertyTable.write(PropertyTable.build(cached, stats), s"$dir/pt"))
        t.span("core.stats_write")(Prost.writeStats(stats, s"$dir/stats.tsv"))
        cached.unpersist()
        t.span("core.open")(Prost.loadFrom(spark, dir))
      }
    }
    val gcMs = Jvm.gcMs - gc0
    def bytes(p: String) = Timing.dirBytes(Paths.get(p))
    (db, LoadTrace(id, bytes(s"$dir/vp"), bytes(s"$dir/pt"), bytes(dir), gcMs))
  }

  /** The per-layer metrics of a traced run, from its spans and counters.
    * Times are medians of per-call self time; counts and bytes are means
    * per traced request (query layers) or per traced load (load layers).
    * `spark.gc_ms` is the mean JVM garbage-collection time during Spark
    * execution per timed operation: per request, or per load when
    * `loadsTimed`.
    */
  def report(ctx: Ctx, queries: Seq[QueryTrace], loads: Seq[LoadTrace], loadsTimed: Boolean,
             sourceBytes: Long, tracingOverhead: Double): Seq[Metric] = {
    ctx.counters.drain()
    val t = ctx.tracer
    def selfMs(span: String) = Stats.median(t.selfMs(span))
    val q = queries.map(r => r -> ctx.counters(r.id))
    val l = loads.map(r => r -> ctx.counters(r.id))
    def perQuery(f: ((QueryTrace, GroupCounters#Counts)) => Double) = Stats.mean(q.map(f))
    def perLoad(f: ((LoadTrace, GroupCounters#Counts)) => Double) = Stats.mean(l.map(f))
    Seq(
      Metric("sparql.parse_ms", selfMs("sparql.parse"), "ms"),
      Metric("core.translate_ms", selfMs("core.translate"), "ms"),
      Metric("core.build_ms", selfMs("core.build"), "ms"),
      Metric("spark.plan_ms", selfMs("spark.plan"), "ms"),
      Metric("spark.exec_ms", selfMs("spark.exec"), "ms"),
      Metric("query.unattributed_ms", selfMs("query"), "ms"),
      Metric("spark.stages", perQuery(_._2.stages.toDouble), "count"),
      Metric("spark.tasks", perQuery(_._2.tasks.toDouble), "count"),
      Metric("spark.exchanges", perQuery(_._1.plan.exchanges.toDouble), "count"),
      Metric("spark.joins", perQuery(_._1.plan.joins.toDouble), "count"),
      Metric("spark.shuffle_write_bytes", perQuery(_._2.shuffleWriteBytes.toDouble), "bytes"),
      Metric("spark.input_bytes", perQuery(_._2.inputBytes.toDouble), "bytes"),
      Metric("spark.rows_scanned_per_result",
        q.map(_._2.inputRecords).sum.toDouble / math.max(1L, queries.map(_.rows).sum), "ratio"),
      Metric("spark.task_run_ms", Stats.median(q.map(_._2.taskRunMs.toDouble)), "ms"),
      Metric("spark.gc_ms", if (loadsTimed) perLoad(_._1.gcMs.toDouble) else perQuery(_._1.gcMs.toDouble), "ms"),
      Metric("core.jt_nodes", perQuery(_._1.shape.nodes.toDouble), "count"),
      Metric("core.pt_nodes", perQuery(_._1.shape.ptNodes.toDouble), "count"),
      Metric("core.cross_joins", perQuery(_._1.shape.crossJoins.toDouble), "count"),
      Metric("core.stats_ms", selfMs("core.stats"), "ms"),
      Metric("core.vp_write_ms", selfMs("core.vp_write"), "ms"),
      Metric("core.pt_write_ms", selfMs("core.pt_write"), "ms"),
      Metric("core.stats_write_ms", selfMs("core.stats_write"), "ms"),
      Metric("core.open_ms", selfMs("core.open"), "ms"),
      Metric("load.unattributed_ms", selfMs("load"), "ms"),
      Metric("load.stages", perLoad(_._2.stages.toDouble), "count"),
      Metric("load.shuffle_write_bytes", perLoad(_._2.shuffleWriteBytes.toDouble), "bytes"),
      Metric("core.vp_bytes", perLoad(_._1.vpBytes.toDouble), "bytes"),
      Metric("core.pt_bytes", perLoad(_._1.ptBytes.toDouble), "bytes"),
      Metric("store_bytes_per_source_byte", perLoad(_._1.storeBytes.toDouble) / sourceBytes, "ratio"),
      Metric("tracing_overhead", tracingOverhead, "ratio"),
    )
  }
}
