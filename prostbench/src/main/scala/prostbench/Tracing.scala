package prostbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.{Exchange, ReusedExchangeExec}
import org.apache.spark.sql.execution.joins.BaseJoinExec

import repro.core.{JoinTree, JtNode, PtJtNode}

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (-1 for a request's root); all spans of one request share `request`.
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, request: String) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans nest by call structure; they are kept
  * in memory and written out only when the run ends.
  */
final class Tracer {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  private var currentRequest = ""

  /** Time `body` as a root span that opens request `id`. */
  def request[A](id: String, name: String)(body: => A): A = {
    require(stack.isEmpty, "requests do not nest")
    currentRequest = id
    span(name)(body)
  }

  /** Time `body` as a child of the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val start = System.nanoTime()
    try body
    finally {
      done += Span(id, name, start, System.nanoTime(), parent, currentRequest)
      stack = stack.tail
    }
  }

  def spans: Seq[Span] = done.toSeq

  /** Self time in ms of every span called `name`: its duration minus the
    * part its child spans cover.
    */
  def selfMs(name: String): Seq[Double] = {
    val childNs = done.groupMapReduce(_.parent)(_.durationNs)(_ + _)
    done.filter(_.name == name).map(s => (s.durationNs - childNs.getOrElse(s.id, 0L)) / 1e6).toSeq
  }

  /** One JSON object per span, one per line. */
  def jsonLines: Seq[String] = done.sortBy(_.id).map { s =>
    Json.obj(Seq(
      "id" -> Json.num(s.id), "name" -> Json.str(s.name), "start_ns" -> Json.num(s.startNs),
      "end_ns" -> Json.num(s.endNs), "parent" -> Json.num(s.parent), "request" -> Json.str(s.request),
    ))
  }.toSeq
}

/** Spark's work per request, counted by job group. The listener maps every
  * stage to its job's group when the job starts, so the counts do not
  * depend on when the asynchronous listener events arrive; [[drain]] waits
  * until every event posted so far has been seen.
  */
final class GroupCounters(spark: SparkSession) extends SparkListener {

  final class Counts {
    var stages, tasks, shuffleWriteBytes, inputBytes, inputRecords, taskRunMs = 0L
  }

  private val GroupKey = "spark.jobGroup.id"
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val counts = mutable.Map.empty[String, Counts]
  private val drains = mutable.Map.empty[String, CountDownLatch]
  private var drainSeq = 0

  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(GroupKey))).foreach { g =>
      jobGroup(e.jobId) = g
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.get(info.stageId).foreach { g =>
      val c = counts.getOrElseUpdate(g, new Counts)
      c.stages += 1
      c.tasks += info.numTasks
      Option(info.taskMetrics).foreach { m =>
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.inputBytes += m.inputMetrics.bytesRead
        c.inputRecords += m.inputMetrics.recordsRead
        c.taskRunMs += m.executorRunTime
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.get(e.jobId).flatMap(drains.get).foreach(_.countDown())
  }

  /** Run `body` with its Spark jobs tagged as group `id`. */
  def inGroup[A](id: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(id, id, interruptOnCancel = false)
    try body
    finally sc.clearJobGroup()
  }

  /** Wait until the listener has processed every event posted so far: a
    * marker job's end event is queued behind all of them.
    */
  def drain(): Unit = {
    val (id, latch) = synchronized {
      drainSeq += 1
      val id = s"drain-$drainSeq"
      val latch = new CountDownLatch(1)
      drains(id) = latch
      (id, latch)
    }
    inGroup(id)(spark.sparkContext.parallelize(Seq(1), 1).count())
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener events were not drained within 60 s")
  }

  /** Counts of group `id` (zero if it ran no stage); call after [[drain]]. */
  def apply(id: String): Counts = synchronized(counts.getOrElse(id, new Counts))
}

/** Operator counts of the plan that actually ran. With adaptive execution
  * on, the physical plan is an `AdaptiveSparkPlanExec` leaf whose final
  * plan is cut into query-stage leaves; a plain tree walk sees neither
  * Exchanges nor joins. These walks unwrap both.
  */
object PlanCounters {

  final case class Counts(exchanges: Int, joins: Int)

  private def count(nodes: Seq[SparkPlan]): Counts = Counts(
    nodes.count { case _: Exchange | _: ReusedExchangeExec => true; case _ => false },
    nodes.count(_.isInstanceOf[BaseJoinExec]),
  )

  private def unwrap(plan: SparkPlan): Seq[SparkPlan] = plan match {
    case a: AdaptiveSparkPlanExec => unwrap(a.executedPlan)
    case s: QueryStageExec => unwrap(s.plan)
    case p => p +: p.children.flatMap(unwrap)
  }

  /** Counts in the final plan of an executed query. */
  def executed(plan: SparkPlan): Counts = count(unwrap(plan))

  /** Counts of a plain tree walk, which stops at adaptive leaves. */
  def naive(plan: SparkPlan): Counts = count(plan.collect { case p => p })
}

/** Shape of a Join Tree, folded with the executor's rule: a child whose
  * subtree shares no variable with the columns accumulated so far is a
  * cross join.
  */
final case class JtShape(nodes: Int, ptNodes: Int, crossJoins: Int)

object JtShape {
  def of(tree: JoinTree): JtShape = {
    def crossJoins(node: JtNode): Int = {
      var bound = node.ownVariables
      node.children.map { child =>
        val vars = child.subtreeVariables
        val cross = if (bound.intersect(vars).isEmpty) 1 else 0
        bound ++= vars
        cross + crossJoins(child)
      }.sum
    }
    JtShape(tree.nodes.size, tree.nodes.count(_.isInstanceOf[PtJtNode]), crossJoins(tree.root))
  }
}

/** Process-wide resource readings. */
object Jvm {

  /** Total garbage-collection time of this JVM so far, in ms. */
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Peak resident set size of this process in MB (Linux `VmHWM`). */
  def peakRssMb: Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
    }.getOrElse(sys.error("VmHWM missing from /proc/self/status"))
    finally src.close()
  }
}
