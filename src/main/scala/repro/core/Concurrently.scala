package repro.core

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.SparkContext

/** Independent pieces of work run as concurrent tasks: the report's
  * reductions as concurrent Spark jobs (Section 5's "runs independent nodes
  * in parallel"), and the local stage's column sorts and pair kernels.
  *
  * Tasks run on the global pool, which is sized to the cores; no thread is
  * started per task. A task that waits on nested tasks waits in `Await`,
  * which is `blocking`, so the pool may add a thread rather than starve.
  * Each call returns once every one of its tasks has finished, so no Spark
  * job outlives it; if any failed, the first failure in argument order is
  * rethrown as it was thrown. With a SparkContext, each task's jobs carry
  * the caller's job group, description, tags and scheduler pool, so the
  * caller can still label and cancel them.
  */
private[repro] final class Concurrently private (sc: Option[SparkContext]) {

  def apply[A](tasks: Seq[() => A]): Seq[A] = {
    val carried = sc.map(c => Concurrently.CarriedProperties.map(k => k -> c.getLocalProperty(k)))
    // every throwable is caught in the task: a Future would leave a fatal error uncompleted
    val running = tasks.map(t => Future {
      try Right(carried.fold(t())(withProperties(_)(t()))) catch { case e: Throwable => Left(e) }
    }(ExecutionContext.global))
    running.map(Await.result(_, Duration.Inf)).map(_.fold(e => throw e, identity))
  }

  def apply[A, B, C](a: => A, b: => B, c: => C): (A, B, C) = {
    val Seq(x, y, z) = apply(Seq(() => a, () => b, () => c))
    (x.asInstanceOf[A], y.asInstanceOf[B], z.asInstanceOf[C])
  }

  def apply[A, B, C, D](a: => A, b: => B, c: => C, d: => D): (A, B, C, D) = {
    val Seq(w, x, y, z) = apply(Seq(() => a, () => b, () => c, () => d))
    (w.asInstanceOf[A], x.asInstanceOf[B], y.asInstanceOf[C], z.asInstanceOf[D])
  }

  /** `body` under the given local properties, restoring the pool thread's own after. */
  private def withProperties[A](props: Seq[(String, String)])(body: => A): A = {
    val c = sc.get
    val own = props.map { case (k, _) => k -> c.getLocalProperty(k) }
    props.foreach { case (k, v) => c.setLocalProperty(k, v) }
    try body finally own.foreach { case (k, v) => c.setLocalProperty(k, v) }
  }
}

private[repro] object Concurrently {

  /** The Spark local properties a caller sets to label or cancel its jobs. */
  private val CarriedProperties = Seq("spark.jobGroup.id", "spark.job.description",
    "spark.job.interruptOnCancel", "spark.job.tags", "spark.scheduler.pool")

  /** Tasks that run Spark jobs on `sc`. */
  def apply(sc: SparkContext): Concurrently = new Concurrently(Some(sc))

  /** Tasks that run no Spark job. */
  val local: Concurrently = new Concurrently(None)
}
