package repro

import org.apache.spark.sql.DataFrame

import repro.core.{Missing, Reductions, SparkStage}
import repro.core.Intermediates._

/** The per-visualization strategy of Figure 6(a), the Koalas/PySpark
  * analog: `SparkStage`'s own reduction run once per column (and once per
  * pair for the 2-D grids), so every plot is its own Spark graph. The
  * table counts, the correlations and the missing-value counts already are
  * one graph per plot, so they run as they do fused.
  */
object PerPlot extends Reductions {

  def numericStats(df: DataFrame, cols: Seq[String]): Map[String, NumericStats] =
    cols.flatMap(c => SparkStage.numericStats(df, Seq(c))).toMap

  def categoricalStats(df: DataFrame, cols: Seq[String]): Map[String, CategoricalStats] =
    cols.flatMap(c => SparkStage.categoricalStats(df, Seq(c))).toMap

  def tableCounts(df: DataFrame): (Long, Long) = SparkStage.tableCounts(df)

  def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, SparkStage.BinnedColumn] =
    stats.flatMap(s => SparkStage.histograms(df, Seq(s), bins)).toMap

  def frequencies(df: DataFrame, cols: Seq[String], topK: Int): Map[String, Seq[(String, Long)]] =
    cols.flatMap(c => SparkStage.frequencies(df, Seq(c), topK)).toMap

  def grids(df: DataFrame, pairs: Seq[(NumericStats, NumericStats)], xBins: Int, yBins: Int): Seq[Grid2D] =
    pairs.flatMap(p => SparkStage.grids(df, Seq(p), xBins, yBins))

  def correlations(df: DataFrame, cols: Seq[String], pairs: Seq[(Int, Int)], rows: Long,
                   methods: Seq[String], maxRows: Long): Map[String, Map[(String, String), Double]] =
    SparkStage.correlations(df, cols, pairs, rows, methods, maxRows)

  def missing(df: DataFrame, cols: Seq[String], nBuckets: Int): Missing.MissingCounts =
    SparkStage.missing(df, cols, nBuckets)
}
