package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.SparkSpec
import repro.data.EdaData

/** The fused pipeline runs O(1) Spark jobs per task: the count depends on
  * which column kinds are present, not on how many columns there are.
  */
class JobCountSpec extends SparkSpec {

  private lazy val narrow = EdaData.dataset(spark, 1000, 5, 5).cache()
  private lazy val wide = EdaData.dataset(spark, 1000, 40, 20).cache()

  private def jobsOf(f: => Any): Long = {
    val jobs = new AtomicLong
    val counter = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(spark.sparkContext)
    spark.sparkContext.addSparkListener(counter)
    try { f; ListenerBusDrain(spark.sparkContext) }
    finally spark.sparkContext.removeSparkListener(counter)
    jobs.get()
  }

  override def beforeAll(): Unit = {
    super.beforeAll()
    narrow.count(); wide.count() // materialize the caches outside the counts
    Eda.plotMissing(narrow) // session tuning happens on the first call
  }

  test("plotMissing(df) runs two Spark jobs on a narrow and a wide table") {
    assert(jobsOf(Eda.plotMissing(narrow)) == 2)
    assert(jobsOf(Eda.plotMissing(wide)) == 2)
  }

  test("createReport runs as many Spark jobs on a wide table as on a narrow one") {
    val n = jobsOf(Eda.createReport(narrow))
    assert(n == jobsOf(Eda.createReport(wide)))
  }
}
