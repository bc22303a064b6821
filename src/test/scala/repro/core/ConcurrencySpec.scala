package repro.core

import java.util.concurrent.ConcurrentLinkedQueue

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerBusDrain, SparkException}
import org.apache.spark.scheduler.{ActiveJobs, SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}

import repro.SparkSpec
import repro.core.Intermediates._
import repro.data.EdaData

/** The report's reductions run as concurrent Spark jobs: a failure surfaces
  * as itself, concurrent reports on one session agree with sequential ones,
  * and the caller's job group reaches every job.
  */
class ConcurrencySpec extends SparkSpec {

  private lazy val df = EdaData.dataset(spark, 600, 4, 3, seed = 11).cache()
  private val cfg = EdaConfig.default

  /** Every number of the report's intermediates, printed in a fixed order
    * (as text, so that NaN equals NaN).
    */
  private def digest(ri: Eda.ReportIntermediates): String = {
    val o = ri.overview
    Seq(o.dataset, o.categoricalStats, o.insights,
      o.numericStats.map(s => s.copy(percentiles = null) -> s.percentiles.toSeq),
      o.histograms.toSeq.sortBy(_._1).map { case (c, h) => (c, h.edges.toSeq, h.counts.toSeq) },
      o.frequencies.toSeq.sortBy(_._1).map { case (c, f) => (c, f.topK) },
      ri.variables.collect { case n: Univariate.NumericUnivariate => (n.stats.name, n.box) },
      ri.interactions.map(g => (g.xColumn, g.yColumn, g.counts.map(_.toSeq).toSeq)),
      ri.correlations.matrices.map(m => (m.method, m.values.map(_.toSeq).toSeq)),
      ri.correlations.insights,
      ri.missing.bar, ri.missing.spectrum.buckets,
      ri.missing.spectrum.missingFraction.map(_.toSeq).toSeq,
      ri.missing.nullityCorrelation.values.map(_.toSeq).toSeq).mkString("\n")
  }

  test("two reports on one session from two threads equal sequential reports") {
    val sequential = digest(Eda.computeReportIntermediates(df, cfg))
    implicit val ec: ExecutionContext = ExecutionContext.global
    val both = Seq.fill(2)(Future(digest(Eda.computeReportIntermediates(df, cfg))))
    both.foreach(f => assert(Await.result(f, Duration.Inf) == sequential))
  }

  /** SparkStage's reductions, but `frequencies` fails with `error`. */
  private def failingFrequencies(error: Exception): Reductions = new Reductions {
    def numericStats(df: DataFrame, cols: Seq[String]): Map[String, NumericStats] =
      SparkStage.numericStats(df, cols)
    def categoricalStats(df: DataFrame, cols: Seq[String]): Map[String, CategoricalStats] =
      SparkStage.categoricalStats(df, cols)
    def tableCounts(df: DataFrame): (Long, Long) = SparkStage.tableCounts(df)
    def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, SparkStage.BinnedColumn] =
      SparkStage.histograms(df, stats, bins)
    def frequencies(df: DataFrame, cols: Seq[String], topK: Int): Map[String, Seq[(String, Long)]] =
      throw error
    def grids(df: DataFrame, pairs: Seq[(NumericStats, NumericStats)], xBins: Int, yBins: Int): Seq[Grid2D] =
      SparkStage.grids(df, pairs, xBins, yBins)
    def correlations(df: DataFrame, cols: Seq[String], pairs: Seq[(Int, Int)], rows: Long,
                     methods: Seq[String], maxRows: Long): Map[String, Map[(String, String), Double]] =
      SparkStage.correlations(df, cols, pairs, rows, methods, maxRows)
    def missing(df: DataFrame, cols: Seq[String], nBuckets: Int): Missing.MissingCounts =
      SparkStage.missing(df, cols, nBuckets)
  }

  test("a failing reduction's own exception is rethrown, after every other job has ended") {
    val error = new IllegalStateException("frequencies failed")
    val thrown = intercept[IllegalStateException](
      Eda.computeReportIntermediates(df, cfg, failingFrequencies(error)))
    assert(thrown eq error)
    assert(ActiveJobs(spark.sparkContext).isEmpty)
  }

  test("createReport rethrows a failing Spark job's exception, not a wrapper or a timeout") {
    val boom = udf((x: Double) => if (x > 0) throw new ArithmeticException("boom") else x)
    val bad = df.withColumn("num_0", boom(col("num_0")))
    val thrown = intercept[Throwable](Eda.createReport(bad))
    assert(thrown.isInstanceOf[SparkException], thrown)
    assert(Iterator.iterate(thrown)(_.getCause).takeWhile(_ != null)
      .exists(e => e.isInstanceOf[ArithmeticException] && e.getMessage == "boom"), thrown)
    assert(ActiveJobs(spark.sparkContext).isEmpty)
  }

  test("every job of a report carries the caller's job group") {
    val groups = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(String.valueOf(e.properties.getProperty("spark.jobGroup.id")))
    }
    val sc = spark.sparkContext
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    sc.setJobGroup("eda-report", "a labelled report")
    try { Eda.createReport(df); ListenerBusDrain(sc) }
    finally { sc.clearJobGroup(); sc.removeSparkListener(listener) }
    assert(groups.size == 10)
    assert(groups.asScala.toSet == Set("eda-report"))
  }
}
