package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** The reductions the profile report is assembled from, one method per
  * kind; each returns the raw result. `SparkStage` fuses each kind over
  * every column into O(1) Spark actions; the eager `ProfilingBaseline`
  * runs one action per statistic, column or pair. Both feed the one
  * assembly, `Eda.computeReportIntermediates(df, cfg, r)`, so they differ
  * only in how the reductions execute.
  */
private[repro] trait Reductions {

  def columnAggregates(df: DataFrame, numCols: Seq[String], catCols: Seq[String],
                       withDuplicates: Boolean = true): SparkStage.TableAggregates

  def histograms(df: DataFrame, cols: Seq[String], mins: Seq[Double], maxs: Seq[Double],
                 bins: Int): Map[String, Histogram]

  def frequencies(df: DataFrame, cols: Seq[String], maxDistinct: Int): Map[String, Seq[(String, Long)]]

  def outlierCounts(df: DataFrame, fences: Seq[(String, Double, Double)]): Map[String, Long]

  /** Coefficients keyed method → (column, column) pair, for every pair of `cols`. */
  def correlations(df: DataFrame, cols: Seq[String], rows: Long, methods: Seq[String],
                   maxRows: Long): Map[String, Map[(String, String), Double]]

  /** (rows, missing count per column, spectrum, both-missing count of columns
    * i and j): the inputs of `Missing.assembleOverview`.
    */
  def missing(df: DataFrame, cols: Seq[String],
              nBuckets: Int): (Long, Seq[Long], MissingSpectrum, (Int, Int) => Long)

  /** Histograms of the columns that have data; a column with none has no histogram. */
  final def histogramsOf(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, Histogram] = {
    val withData = stats.filter(_.count > 0)
    histograms(df, withData.map(_.name), withData.map(_.min), withData.map(_.max), bins)
  }

  /** Counts beyond the Tukey fences of every column that has data. */
  final def outliersOf(df: DataFrame, stats: Seq[NumericStats]): Map[String, Long] =
    outlierCounts(df, stats.filter(_.count > 0).map { s =>
      val (lo, hi) = LocalStage.fences(s); (s.name, lo, hi)
    })
}
