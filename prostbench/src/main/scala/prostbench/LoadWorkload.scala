package prostbench

import java.nio.file.Paths

import scala.collection.mutable.ArrayBuffer

import repro.core.{Executor, Prost, ProstDb}
import repro.rdf.TripleOps
import repro.util.Timing
import repro.watdiv.WatDivQueries

/** The load workload: repeated `Prost.writeTo` of the same source into a
  * fresh directory, one after the other. Each store is reopened with
  * `Prost.loadFrom` and checked outside the timed call: its statistics and
  * its VP tables must hold every source triple, and it must answer one
  * WatDiv request (the next template of a seeded order, with fresh
  * constants) as the oracle does.
  */
final class LoadWorkload(ctx: Ctx) {

  private val spark = ctx.spark

  def run(): Outcome = {
    val (source, sourceBytes) = Setup.source(ctx)
    val gate = new OracleGate(source)
    try run(source, sourceBytes, gate)
    finally gate.close()
  }

  private def run(source: String, sourceBytes: Long, gate: OracleGate): Outcome = {
    val seed = ctx.args.seed
    val tripleCount = gate.tripleCount
    ctx.phase("oracle")
    val probeOrder = Instances.passOrder(seed, 0, WatDivQueries.All.size)
    val probes = ArrayBuffer.empty[Instance]

    val loadTraces = ArrayBuffer.empty[LoadTrace]
    val probeTraces = ArrayBuffer.empty[QueryTrace]
    val storeBytes = ArrayBuffer.empty[Double]

    def verify(k: Int, dir: String, traced: Boolean): Unit = {
      val db = Prost.loadFrom(spark, dir)
      val vpRows = spark.read.parquet(s"$dir/vp").count()
      ctx.check(s"load $k",
        if (db.stats.totalTriples == tripleCount && vpRows == tripleCount) None
        else Some(s"store holds ${db.stats.totalTriples} triples in its stats and $vpRows in VP, source has $tripleCount"))
      probe(k, db, traced)
    }

    def probe(k: Int, db: ProstDb, traced: Boolean): Unit = {
      val inst = Instances.draw(seed, k)(probeOrder(k % probeOrder.size))
      probes += inst
      ctx.guarded(s"probe ${inst.template} on load $k") {
        val (columns, rows) =
          if (traced) {
            val (rows, df, trace) = Layers.query(ctx, db, new Executor(db.vp, db.pt), s"probe-$k", inst, vpOnly = false)
            probeTraces += trace
            (df.columns.toSeq, rows)
          } else {
            val df = db.query(inst.sparql, vpOnly = false)
            (df.columns.toSeq, df.collect())
          }
        ctx.check(s"probe ${inst.template} on load $k",
          Option.when(Bag.ofRows(columns, rows) != gate.bag(inst.sparql))("answer differs from the oracle"))
      }
    }

    /** Load number `k` into a fresh directory; its wall time in ms. */
    def load(k: Int, traced: Boolean): Option[Double] = {
      val dir = ctx.dir(s"store-$k")
      val ms = ctx.guarded(s"load $k") {
        val start = System.nanoTime()
        if (traced) loadTraces += Layers.load(ctx, source, dir, s"load-$k")._2
        else Prost.writeTo(TripleOps.readText(spark, source), dir)
        val ms = (System.nanoTime() - start) / 1e6
        storeBytes += Timing.dirBytes(Paths.get(dir)).toDouble
        verify(k, dir, traced)
        ms
      }
      Dirs.delete(dir)
      ms
    }

    // Two untimed loads: the first loads in a fresh JVM run much longer
    // than later ones while the JIT and Spark's code generation warm up.
    val WarmupLoads = 2
    (0 until WarmupLoads).foreach(load(_, traced = false))
    ctx.phase("warmup")
    val setupS = ctx.setupS

    // Timed loads. A traced run alternates untraced and traced loads, at
    // least untraced-traced-untraced, to measure the tracing overhead.
    val untracedMs = ArrayBuffer.empty[Double]
    val tracedMs = ArrayBuffer.empty[Double]
    val minLoads = if (ctx.args.trace) 3 else 1
    var i = 0
    while (i < minLoads || (untracedMs.sum + tracedMs.sum) / 1000 < ctx.args.seconds) {
      val traced = ctx.args.trace && i % 2 == 1
      load(WarmupLoads + i, traced).foreach(ms => (if (traced) tracedMs else untracedMs) += ms)
      i += 1
    }

    val env = Setup.env(ctx, tripleCount, sourceBytes, probes.toSeq)
    if (ctx.args.trace) {
      val overhead = Stats.median(tracedMs.toSeq) / Stats.median(untracedMs.toSeq) - 1.0
      Outcome(Layers.report(ctx, probeTraces.toSeq, loadTraces.toSeq, loadsTimed = true, sourceBytes, overhead), Nil,
        Seq(f"tracing overhead: $overhead%.4f over ${tracedMs.size}%d traced and ${untracedMs.size}%d untraced loads"), env)
    } else {
      val ms = untracedMs.toSeq
      Outcome(Metric.endToEnd(setupS, ms, Stats.median(storeBytes.toSeq)),
        Seq(Metric("load_s", Stats.median(ms) / 1000.0, "s")),
        Seq(s"timed loads (ms): ${ms.map(m => f"$m%.0f").mkString(" ")}"), env)
    }
  }
}
