package repro.core

import org.apache.spark.sql.DataFrame

import repro.{JobCounting, SparkSpec}
import repro.data.EdaData

/** The fused pipeline runs O(1) Spark jobs per task: the count depends on
  * which column kinds are present, not on how many columns there are.
  */
class JobCountSpec extends SparkSpec with JobCounting {

  private lazy val narrow = EdaData.dataset(spark, 1000, 5, 5).cache()
  private lazy val wide = EdaData.dataset(spark, 1000, 40, 20).cache()

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
    assert(jobsOf(Eda.createReport(narrow)) == 9)
    assert(jobsOf(Eda.createReport(wide)) == 9)
  }

  /** Spark jobs of each fine-grained task: a shared reduction that is
    * dropped, or a fused one that is split, changes a count.
    */
  private val taskJobs: Seq[(String, DataFrame => Any, Long)] = Seq(
    ("plot(df)", Eda.plot(_), 5),
    ("plot(df, num_0)", Eda.plot(_, "num_0"), 3),
    ("plot(df, cat_0)", Eda.plot(_, "cat_0"), 2),
    ("plot(df, num_0, num_1)", Eda.plot(_, "num_0", "num_1"), 6),
    ("plot(df, cat_0, num_1)", Eda.plot(_, "cat_0", "num_1"), 4),
    ("plot(df, cat_0, cat_1)", Eda.plot(_, "cat_0", "cat_1"), 1),
    ("plotCorrelation(df)", Eda.plotCorrelation(_), 3),
    ("plotCorrelation(df, num_0)", Eda.plotCorrelation(_, "num_0"), 3),
    ("plotCorrelation(df, num_0, num_1)", Eda.plotCorrelation(_, "num_0", "num_1"), 3),
    ("plotMissing(df, num_0)", Eda.plotMissing(_, "num_0"), 5),
    ("plotMissing(df, cat_0)", Eda.plotMissing(_, "cat_0"), 5),
    ("plotMissing(df, num_0, num_1)", Eda.plotMissing(_, "num_0", "num_1"), 5),
    ("plotMissing(df, num_0, cat_2)", Eda.plotMissing(_, "num_0", "cat_2"), 2),
    // no rank method: no numeric-matrix collect
    ("plotCorrelation(df, num_0, num_1) with only pearson",
      Eda.plotCorrelation(_, "num_0", "num_1", Map("corr.methods" -> Seq("pearson"))), 2),
    ("plotCorrelation(df, num_0, num_1) with no method",
      Eda.plotCorrelation(_, "num_0", "num_1", Map("corr.methods" -> Seq())), 2),
    ("createReport with no correlation method", Eda.createReport(_, Map("corr.methods" -> Seq())), 8),
  )

  taskJobs.foreach { case (task, run, jobs) =>
    test(s"$task runs $jobs Spark jobs on a narrow and a wide table") {
      assert(jobsOf(run(narrow)) == jobs)
      assert(jobsOf(run(wide)) == jobs)
    }
  }

  test("plotCorrelation(df, num_0) runs 2 Spark jobs when num_0 is the only numeric column") {
    // num_0 has no pair: pass 1 only, no numeric-matrix collect
    for (d <- Seq(EdaData.dataset(spark, 1000, 1, 5), EdaData.dataset(spark, 1000, 1, 20))) {
      val cached = d.cache()
      cached.count()
      try assert(jobsOf(Eda.plotCorrelation(cached, "num_0")) == 2)
      finally cached.unpersist()
    }
  }
}
