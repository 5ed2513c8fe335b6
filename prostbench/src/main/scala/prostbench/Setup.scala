package prostbench

import java.nio.file.{Files, StandardCopyOption}

import repro.rdf.TripleOps
import repro.util.Timing
import repro.watdiv.WatDivGen

/** Set-up shared by every workload. */
object Setup {

  /** Seed of the generated graph. The graph is the same for every run;
    * `--seed` draws the requests that run against it.
    */
  val GraphSeed = 0L

  /** The tab-separated source every load starts from; returns its
    * directory and size in bytes. The graph is generated once into the
    * graph directory and reused by later runs: generation prepares the
    * input and is no part of the program's set-up, so it is a phase of its
    * own that `setup_s` leaves out.
    */
  def source(ctx: Ctx): (String, Long) = {
    val dir = ctx.args.graphDir.resolve("source")
    if (!Files.isDirectory(dir)) {
      val tmp = ctx.args.graphDir.resolve("source.tmp")
      Dirs.delete(tmp.toString)
      TripleOps.writeText(WatDivGen.generate(ctx.spark, ctx.scale, GraphSeed), tmp.toString)
      Files.move(tmp, dir, StandardCopyOption.ATOMIC_MOVE)
      ctx.phase("generate", setup = false)
    }
    (dir.toString, Timing.dirBytes(dir))
  }

  /** The environment record of a run over `tripleCount` source triples. */
  def env(ctx: Ctx, tripleCount: Long, sourceBytes: Long, instances: Seq[Instance]): Seq[(String, String)] = {
    val conf = ctx.spark.conf
    val sc = ctx.spark.sparkContext
    Seq(
      "workload" -> Json.str(ctx.args.workload),
      "seed" -> Json.num(ctx.args.seed),
      "seconds" -> Json.num(ctx.args.seconds.toLong),
      "trace" -> Json.str(if (ctx.args.trace) "1" else "0"),
      "scale" -> Json.num(ctx.scale),
      "graph_seed" -> Json.num(GraphSeed),
      "triples" -> Json.num(tripleCount),
      "source_bytes" -> Json.num(sourceBytes),
      "instances" -> Json.arr(instances.map(i =>
        Json.str(s"${i.template}#${i.set} ${i.drawn.mkString(" ")}".trim))),
      "spark_version" -> Json.str(ctx.spark.version),
      "master" -> Json.str(sc.master),
      "cores" -> Json.num(Runtime.getRuntime.availableProcessors.toLong),
      "default_parallelism" -> Json.num(sc.defaultParallelism.toLong),
      "shuffle_partitions" -> Json.str(conf.get("spark.sql.shuffle.partitions")),
      "aqe" -> Json.str(conf.get("spark.sql.adaptive.enabled")),
      "broadcast_threshold" -> Json.str(conf.get("spark.sql.autoBroadcastJoinThreshold")),
      "jvm_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1024L * 1024L)),
      "java_version" -> Json.str(System.getProperty("java.version")),
    )
  }
}
