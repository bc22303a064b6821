package repro

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. */
trait JobCounting { self: SparkSpec =>

  def jobsOf(f: => Any): Long = withJobs(f)._2

  /** `f`'s result and the Spark jobs it started. */
  def withJobs[A](f: => A): (A, Long) = {
    val jobs = new AtomicLong
    val counter = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(spark.sparkContext)
    spark.sparkContext.addSparkListener(counter)
    try { val result = f; ListenerBusDrain(spark.sparkContext); (result, jobs.get()) }
    finally spark.sparkContext.removeSparkListener(counter)
  }
}
