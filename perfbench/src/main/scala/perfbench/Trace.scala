package perfbench

import scala.collection.mutable

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** Attributes Spark work to the program's modules, from outside the program.
  *
  * Each job is keyed by the innermost `repro.` frame of its call site, as
  * `Object.method` (`SparkStage.columnAggregates`, `Missing.overview`, ...).
  * Keys come from runtime strings, so renaming a function in the program
  * renames its key instead of breaking the benchmark's build.
  *
  * Per key it counts jobs, completed stages and finished tasks, and sums the
  * union of job intervals (busy time), executor run time, shuffle bytes
  * written and task-result bytes sent to the driver. Across all queries it
  * sums Catalyst analysis, optimization and planning time.
  */
final class SparkTrace(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  import SparkTrace._

  private final class Acc {
    var jobs = 0L; var stages = 0L; var tasks = 0L
    var taskMs = 0L; var shuffleBytes = 0L; var resultBytes = 0L
    val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  }

  private val accs = mutable.Map.empty[String, Acc]
  private val jobStart = mutable.Map.empty[Int, (String, Long)]
  private val stageKey = mutable.Map.empty[Int, String]
  private var planMs = 0L
  private var queries = 0L

  private def acc(k: String): Acc = accs.getOrElseUpdate(k, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val k = keyOf(e.stageInfos.map(_.details))
    jobStart(e.jobId) = (k, e.time)
    e.stageIds.foreach(stageKey(_) = k)
    acc(k).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (k, t0) => acc(k).intervals += ((t0, e.time)) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageKey.get(e.stageInfo.stageId).foreach(acc(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageKey.get(e.stageId).foreach { k =>
      val a = acc(k)
      a.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        a.taskMs += m.executorRunTime
        a.resultBytes += m.resultSize
        a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    synchronized {
      queries += 1
      planMs += PlanPhases.flatMap(qe.tracker.phases.get).map(_.durationMs).sum
    }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  def start(): Unit = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
  }

  def stop(): Unit = {
    ListenerBusAccess.drain(spark.sparkContext)
    spark.listenerManager.unregister(this)
    spark.sparkContext.removeSparkListener(this)
  }

  /** Forget everything recorded so far (after draining queued events). */
  def reset(): Unit = {
    ListenerBusAccess.drain(spark.sparkContext)
    synchronized { accs.clear(); jobStart.clear(); stageKey.clear(); planMs = 0; queries = 0 }
  }

  /** Totals since the last reset, once every queued event has arrived. */
  def snapshot(): Snapshot = {
    ListenerBusAccess.drain(spark.sparkContext)
    synchronized {
      val perKey = accs.toSeq.map { case (k, a) =>
        k -> KeyStats(a.jobs, a.stages, a.tasks, unionMs(a.intervals.toSeq) / 1e3,
          a.taskMs / 1e3, a.shuffleBytes / 1e6, a.resultBytes / 1e6)
      }.toMap
      Snapshot(perKey, unionMs(accs.values.flatMap(_.intervals).toSeq) / 1e3,
        planMs / 1e3, queries)
    }
  }
}

object SparkTrace {
  private val PlanPhases = Seq("analysis", "optimization", "planning")

  final case class KeyStats(jobs: Long, stages: Long, tasks: Long, busyS: Double,
                            taskS: Double, shuffleMb: Double, resultMb: Double)

  final case class Snapshot(perKey: Map[String, KeyStats], busyS: Double, planS: Double,
                            queries: Long) {
    def jobs: Long = perKey.values.map(_.jobs).sum
    def stages: Long = perKey.values.map(_.stages).sum
    def tasks: Long = perKey.values.map(_.tasks).sum
    def taskS: Double = perKey.values.map(_.taskS).sum
  }

  /** Total length of the union of [start, end] intervals, in milliseconds. */
  def unionMs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L; var curStart = Long.MinValue; var curEnd = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) { total += curEnd - curStart; curStart = s; curEnd = e }
      else curEnd = math.max(curEnd, e)
    }
    total + (curEnd - curStart)
  }

  /** `repro.core.SparkStage$.$anonfun$columnAggregates$3(SparkStage.scala:99)`
    * becomes `SparkStage.columnAggregates`; jobs with no program frame are
    * keyed `other`.
    */
  def keyOf(callSites: Seq[String]): String =
    callSites.iterator.flatMap(_.linesIterator).map(_.trim)
      .find(_.startsWith("repro.")).map(frameKey).getOrElse("other")

  private def frameKey(frame: String): String = {
    val sig = frame.takeWhile(_ != '(')
    val dot = sig.lastIndexOf('.')
    val obj = sig.take(dot).split('.').last.split('$').find(_.nonEmpty).getOrElse("?")
    val method = sig.drop(dot + 1).split('$').find(s => s.nonEmpty &&
      !Set("anonfun", "lzycompute", "adapted")(s) && !s.forall(_.isDigit)).getOrElse("?")
    s"$obj.$method"
  }
}
