package prostbench

import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.jdk.CollectionConverters._

import repro.harness.JobSession

/** Entry point of one benchmark run: `--workload <name> --seed <n>
  * --seconds <s> --trace <0|1> --work-dir <dir> --graph-dir <dir>
  * --results-dir <dir>`. The work directory holds the run's stores; the
  * graph directory holds the generated source that runs share.
  *
  * Prints the environment record, the report and, as its last line,
  * `RESULT {"correct", "attempted", "failed", "metrics"}`. Exits 0 when
  * every output matched the oracle and every self-check held, 1 otherwise.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv)
    val t0 = System.nanoTime()
    val spark = JobSession.create("prostbench")
    val code =
      try run(new Ctx(spark, args, t0))
      finally spark.stop()
    sys.exit(code)
  }

  private def run(ctx: Ctx): Int = {
    val args = ctx.args
    ctx.phase("session")
    val outcome = args.workload match {
      case "query-mixed" => new QueryWorkload(ctx, vpOnly = false).run()
      case "query-vponly" => new QueryWorkload(ctx, vpOnly = true).run()
      case "load" => new LoadWorkload(ctx).run()
    }
    val correct = ctx.failed == 0 && outcome.selfCheckErrors.isEmpty
    val errorRate = ctx.failed.toDouble / ctx.attempted
    val printed = outcome.printed ++ Seq(Metric("error_rate", errorRate, "ratio"))

    println("env " + Json.obj(outcome.env))
    println(ctx.phaseReport)
    outcome.notes.foreach(println)
    outcome.selfCheckErrors.foreach(e => println(s"SELF-CHECK FAILED: $e"))
    (outcome.metrics ++ printed).foreach(m => println(f"metric ${m.name}%-32s ${m.value}%.6f ${m.unit}"))

    val result = Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> Json.num(ctx.attempted),
      "failed" -> Json.num(ctx.failed),
      "metrics" -> Json.obj(outcome.metrics.map(m => m.name -> m.json)),
    ))
    val stem = s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    Files.createDirectories(args.resultsDir)
    Files.write(args.resultsDir.resolve(s"$stem.json"), Seq(Json.obj(Seq(
      "env" -> Json.obj(outcome.env),
      "result" -> result,
      "printed" -> Json.obj(printed.map(m => m.name -> m.json)),
      "notes" -> Json.arr((ctx.phaseReport +: outcome.notes).map(Json.str)),
      "self_check_errors" -> Json.arr(outcome.selfCheckErrors.map(Json.str)),
    ))).asJava, StandardCharsets.UTF_8)
    if (args.trace)
      Files.write(args.resultsDir.resolve(s"$stem-spans.jsonl"), ctx.tracer.jsonLines.asJava, StandardCharsets.UTF_8)
    println("RESULT " + result)
    if (correct) 0 else 1
  }
}
