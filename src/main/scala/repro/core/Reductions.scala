package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** The reductions the profile report is assembled from, one method per
  * kind; each returns plain values, so all of a reduction's work runs
  * inside it. `SparkStage` fuses each kind over
  * every column or pair into O(1) Spark actions; the eager
  * `ProfilingBaseline` runs one action per statistic, column or pair. Both
  * feed the same assemblies, `Eda.computeReportIntermediates(df, cfg, r)`
  * and `Overview.compute(df, cfg, r)`, so they differ only in how the
  * reductions execute.
  */
private[repro] trait Reductions {

  /** Pass-1 statistics of each listed numeric column; no job when none is listed. */
  def numericStats(df: DataFrame, cols: Seq[String]): Map[String, NumericStats]

  /** (rows, duplicate rows) of the table. */
  def tableCounts(df: DataFrame): (Long, Long)

  /** Histogram and outlier count of each listed column, binned and fenced
    * from its pass-1 stats; every row is kept.
    */
  def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, SparkStage.BinnedColumn]

  /** Statistics of each listed categorical column beside its `topK` most
    * frequent values with their counts; no job when none is listed.
    */
  def frequencies(df: DataFrame, cols: Seq[String], topK: Int): Map[String, SparkStage.CountedColumn]

  /** 2-D grid of each (x, y) pair over its complete rows, binned from the pair's stats. */
  def grids(df: DataFrame, pairs: Seq[(NumericStats, NumericStats)], xBins: Int, yBins: Int): Seq[Grid2D]

  /** Coefficients keyed method → (column, column) pair, for each listed
    * pair of indices into `cols`; `rows` is the table's row count, above
    * `maxRows` of which a sample is correlated.
    */
  def correlations(df: DataFrame, cols: Seq[String], pairs: Seq[(Int, Int)], rows: Long,
                   methods: Seq[String], maxRows: Long): Map[String, Map[(String, String), Double]]

  /** The row count, the both-missing count of every pair of `cols` (the
    * diagonal: each column's missing count) and the missing spectrum: the
    * input of `Missing.assembleOverview`.
    */
  def missing(df: DataFrame, cols: Seq[String], nBuckets: Int): Missing.MissingCounts
}
