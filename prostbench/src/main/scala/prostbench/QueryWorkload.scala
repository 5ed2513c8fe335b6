package prostbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.Row

import repro.core.{Executor, Prost, ProstDb}
import repro.rdf.TripleOps
import repro.sparql.SparqlParser
import repro.util.Timing

/** The query workloads: one client in a closed loop sends WatDiv requests
  * to a PRoST store on disk and sends the next only when all rows of the
  * previous one are collected. Pass `p` visits the 20 templates in a
  * seeded order with constants from draw `p`; pass 0 is the untimed
  * warm-up. `vpOnly` selects the paper's Figure 2 baseline.
  */
final class QueryWorkload(ctx: Ctx, vpOnly: Boolean) {

  private val seed = ctx.args.seed

  private def label(i: Instance) = s"${i.template}#${i.set}"

  def run(): Outcome = {
    val (source, sourceBytes) = Setup.source(ctx)
    val gate = new OracleGate(source)
    try run(source, sourceBytes, gate)
    finally gate.close()
  }

  private def run(source: String, sourceBytes: Long, gate: OracleGate): Outcome = {
    /** Draw `p` with every expected answer computed, so that no oracle
      * work happens inside a pass.
      */
    def instances(p: Int): IndexedSeq[Instance] = {
      val set = Instances.draw(seed, p)
      set.foreach(i => gate.bag(i.sparql))
      set
    }
    val warmup = instances(0)
    val first = instances(1)
    ctx.phase("oracle")

    val storeDir = ctx.dir("store")
    val loadTraces = ArrayBuffer.empty[LoadTrace]
    val db =
      if (ctx.args.trace) {
        val (db, trace) = Layers.load(ctx, source, storeDir, "load-0")
        loadTraces += trace
        db
      } else Prost.writeTo(TripleOps.readText(ctx.spark, source), storeDir)
    val executor = new Executor(db.vp, db.pt)
    ctx.phase("load")

    def verify(inst: Instance, columns: Seq[String], rows: Array[Row]): Unit = {
      val got = Bag.ofRows(columns, rows)
      val want = gate.bag(inst.sparql)
      ctx.check(label(inst),
        if (got == want) None
        else Some(s"answer differs from the oracle: ${got.rows} rows ${got.columns} vs ${want.rows} rows ${want.columns}"))
    }

    /** One request through `ProstDb.query`; its latency in ms. */
    def untraced(inst: Instance): Option[Double] = ctx.guarded(label(inst)) {
      val start = System.nanoTime()
      val df = db.query(inst.sparql, vpOnly)
      val rows = df.collect()
      val ms = (System.nanoTime() - start) / 1e6
      verify(inst, df.columns.toSeq, rows)
      ms
    }

    val traces = ArrayBuffer.empty[QueryTrace]
    var requests = 0

    /** One request through the traced layer calls; its latency in ms. */
    def traced(inst: Instance): Option[Double] = ctx.guarded(label(inst)) {
      requests += 1
      val start = System.nanoTime()
      val (rows, df, trace) = Layers.query(ctx, db, executor, s"q-$requests", inst, vpOnly)
      val ms = (System.nanoTime() - start) / 1e6
      verify(inst, df.columns.toSeq, rows)
      traces += trace
      ms
    }

    Instances.passOrder(seed, 0, warmup.size).foreach(i => untraced(warmup(i)))
    ctx.phase("warmup")
    val setupS = ctx.setupS

    // Timed passes, at least one. A traced run issues every request twice,
    // untraced and traced, alternating which goes first, to measure the
    // tracing overhead.
    val used = ArrayBuffer.from(warmup)
    val latencies = ArrayBuffer.empty[(Instance, Double)]
    val pairs = ArrayBuffer.empty[(Double, Double)]
    var timedNs = 0L
    var pass = 1
    while (pass == 1 || timedNs / 1e9 < ctx.args.seconds) {
      val set = if (pass == 1) first else instances(pass)
      used ++= set
      val start = System.nanoTime()
      Instances.passOrder(seed, pass, set.size).foreach { i =>
        val inst = set(i)
        if (!ctx.args.trace) untraced(inst).foreach(ms => latencies += inst -> ms)
        else pairs ++= (
          if (requests % 2 == 0) for (u <- untraced(inst); t <- traced(inst)) yield (u, t)
          else for (t <- traced(inst); u <- untraced(inst)) yield (u, t))
      }
      timedNs += System.nanoTime() - start
      pass += 1
    }

    val env = Setup.env(ctx, gate.tripleCount, sourceBytes, used.toSeq)
    if (ctx.args.trace) tracedOutcome(db, warmup, traces.toSeq, loadTraces.toSeq, sourceBytes, pairs.toSeq, env)
    else {
      val ms = latencies.map(_._2).toSeq
      val storeBytes = Timing.dirBytes(java.nio.file.Paths.get(storeDir)).toDouble
      val byGroup = Seq("C", "F", "L", "S").map { g =>
        Metric(s"query_p50_ms.$g", Stats.median(latencies.collect { case (i, t) if i.group == g => t }.toSeq), "ms")
      }
      val printed = Seq(
        Metric("query_p50_ms", Stats.median(ms), "ms"),
        Metric("query_p90_ms", Stats.quantile(ms, 0.9), "ms"),
      ) ++ byGroup :+ Metric("queries_per_s", ms.size / (ms.sum / 1000.0), "1/s")
      val requests = latencies.map { case (i, t) => f"${label(i)}=$t%.0f" }.mkString(" ")
      Outcome(Metric.endToEnd(setupS, ms, storeBytes), printed, Seq(
        s"timed requests: ${ms.size} in ${pass - 1} passes (query_p90_ms over ${ms.size} samples)",
        s"request latencies (ms): $requests"), env)
    }
  }

  private def tracedOutcome(
      db: ProstDb,
      base: Seq[Instance],
      traces: Seq[QueryTrace],
      loads: Seq[LoadTrace],
      sourceBytes: Long,
      pairs: Seq[(Double, Double)],
      env: Seq[(String, String)],
  ): Outcome = {
    val overhead = Stats.median(pairs.map { case (u, t) => t / u - 1.0 })
    val metrics = Layers.report(ctx, traces, loads, loadsTimed = false, sourceBytes, overhead)

    val perTemplate = traces.groupBy(_.inst.template).toSeq.sortBy(t => base.indexWhere(_.template == t._1)).map {
      case (name, ts) =>
        val c = ts.map(t => ctx.counters(t.id))
        val ids = ts.map(_.id).toSet
        val exec = Stats.median(ctx.tracer.spans.filter(s => s.name == "spark.exec" && ids(s.request)).map(_.durationNs / 1e6))
        def mean(f: QueryTrace => Int) = Stats.mean(ts.map(f(_).toDouble))
        f"template $name%-3s requests=${ts.size}%d rows=${Stats.mean(ts.map(_.rows.toDouble))}%.0f exec_ms=$exec%.1f " +
          f"stages=${Stats.mean(c.map(_.stages.toDouble))}%.1f tasks=${Stats.mean(c.map(_.tasks.toDouble))}%.1f " +
          f"exchanges=${mean(_.plan.exchanges)}%.1f joins=${mean(_.plan.joins)}%.1f " +
          f"jt_nodes=${mean(_.shape.nodes)}%.0f pt_nodes=${mean(_.shape.ptNodes)}%.0f cross_joins=${mean(_.shape.crossJoins)}%.0f"
    }
    val shapes = base.map { inst =>
      def shape(vp: Boolean) = JtShape.of(db.plan(SparqlParser.parse(inst.sparql), vp))
      val (m, v) = (shape(false), shape(true))
      s"jt-shape ${inst.template}: mixed nodes=${m.nodes} pt=${m.ptNodes} cross=${m.crossJoins}; " +
        s"vp-only nodes=${v.nodes} pt=${v.ptNodes} cross=${v.crossJoins}"
    }

    // Self-check of the plan counters: the final plan of VP-only C1 has
    // Exchanges, the final plan of mixed S2 (one Property Table node) has none.
    def exchanges(template: String, vp: Boolean): (Int, String) = {
      val df = db.query(base.find(_.template == template).get.sparql, vp)
      df.collect()
      val plan = df.queryExecution.executedPlan
      val n = PlanCounters.executed(plan).exchanges
      (n, s"self-check: ${if (vp) "VP-only" else "mixed"} $template exchanges=$n " +
        s"(a plain plan walk sees ${PlanCounters.naive(plan).exchanges})")
    }
    val (c1, c1Note) = exchanges("C1", vp = true)
    val (s2, s2Note) = exchanges("S2", vp = false)
    val errors = Seq(
      Option.when(c1 == 0)("VP-only C1 shows no Exchange in its final plan"),
      Option.when(s2 != 0)("mixed S2 shows an Exchange in its final plan"),
    ).flatten

    Outcome(metrics, Nil, perTemplate ++ shapes ++
      Seq(c1Note, s2Note, f"tracing overhead: median $overhead%.4f over ${pairs.size}%d request pairs"), env, errors)
  }
}
