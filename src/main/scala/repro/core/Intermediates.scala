package repro.core

import repro.stats.Dendrogram

/** Intermediates (Section 4.2.2): results of all computation on the data,
  * ready to be fed into visualizations. The Compute module produces these;
  * the Render module consumes them; users can consume them directly with
  * their own plotting stack (the paper's second benefit of the split).
  */
object Intermediates {

  /** Single-pass basic aggregates of a numerical column. `percentiles` is
    * the approximate quantile grid at `percentileProbs` (0, 0.01..0.99, 1).
    */
  final case class NumericStats(
      name: String,
      count: Long,           // non-null, non-NaN values
      missing: Long,         // nulls + NaNs
      distinct: Long,
      mean: Double,
      std: Double,
      min: Double,
      max: Double,
      skewness: Double,
      kurtosis: Double,      // excess kurtosis (Spark semantics)
      zeros: Long,
      negatives: Long,
      infinites: Long,
      sum: Double,
      percentiles: Array[Double]) {
    def total: Long = count + missing + infinites
    def missingFraction: Double = if (total == 0) 0.0 else missing.toDouble / total
    /** The grid's quantile at p, NaN for an empty grid. */
    def quantile(p: Double): Double = {
      if (percentiles.isEmpty) return Double.NaN
      val idx = math.round(p * 100).toInt // grid index of p is p*100 (0.0, 0.01..0.99, 1.0)
      percentiles(math.min(math.max(idx, 0), percentiles.length - 1))
    }
    def q1: Double = quantile(0.25)
    def median: Double = quantile(0.50)
    def q3: Double = quantile(0.75)
    def iqr: Double = q3 - q1
    def range: Double = max - min
    /** At least two values with a positive, defined standard deviation. */
    def hasVariance: Boolean = count > 1 && !std.isNaN && std > 0
  }

  final case class CategoricalStats(
      name: String,
      count: Long,
      missing: Long,
      distinct: Long,
      minLength: Long,
      maxLength: Long,
      avgLength: Double) {
    def total: Long = count + missing
    def missingFraction: Double = if (total == 0) 0.0 else missing.toDouble / total
  }

  /** Fixed-width histogram: `counts(i)` covers [edges(i), edges(i+1)). */
  final case class Histogram(column: String, edges: Array[Double], counts: Array[Long]) {
    def bins: Int = counts.length
    def total: Long = counts.sum
    def centers: Array[Double] =
      Array.tabulate(bins)(i => (edges(i) + edges(i + 1)) / 2.0)
  }

  /** Top-K value counts of a categorical column (K from config), plus the
    * grand totals so "other" mass is renderable.
    */
  final case class CategoryFrequencies(column: String, topK: Seq[(String, Long)],
                                       distinct: Long, totalNonNull: Long) {
    def otherCount: Long = totalNonNull - topK.map(_._2).sum
  }

  final case class WordFrequencies(column: String, topK: Seq[(String, Long)], totalWords: Long)

  /** Tukey box plot. Whiskers clamp to the most extreme value within the
    * 1.5*IQR fences; `outliers` is the count beyond them.
    */
  final case class BoxPlot(column: String, min: Double, q1: Double, median: Double,
                           q3: Double, max: Double, lowerWhisker: Double,
                           upperWhisker: Double, outliers: Long)

  final case class KdeCurve(column: String, grid: Array[Double], density: Array[Double])

  /** Normal Q-Q: sample quantiles vs. theoretical normal quantiles. */
  final case class QQPlot(column: String, theoretical: Array[Double], sample: Array[Double])

  final case class CorrelationMatrix(method: String, columns: Seq[String],
                                     values: Array[Array[Double]]) {
    def apply(i: Int, j: Int): Double = values(i)(j)
    def pairs: Seq[(String, String, Double)] =
      for (i <- columns.indices; j <- i + 1 until columns.size)
        yield (columns(i), columns(j), values(i)(j))
  }

  /** Correlation of one column against all others, per method. */
  final case class CorrelationVector(method: String, column: String,
                                     others: Seq[String], values: Array[Double])

  final case class ScatterPlot(xColumn: String, yColumn: String,
                               points: Seq[(Double, Double)],
                               slope: Double, intercept: Double, pearson: Double)

  /** Rectangular 2-D density grid — the hexbin-plot substitute. */
  final case class Grid2D(xColumn: String, yColumn: String,
                          xEdges: Array[Double], yEdges: Array[Double],
                          counts: Array[Array[Long]])

  /** Box stats of y within each x bin (binned box plot, NN bivariate). */
  final case class BinnedBoxPlot(xColumn: String, yColumn: String,
                                 xEdges: Array[Double], boxes: Seq[BoxPlot])

  /** Box stats of the numerical column per category (NC bivariate). */
  final case class CategoricalBoxPlot(catColumn: String, numColumn: String,
                                      boxes: Seq[(String, BoxPlot)])

  /** Per-category histogram of the numerical column (multi-line chart). */
  final case class MultiLineChart(catColumn: String, numColumn: String,
                                  edges: Array[Double],
                                  lines: Seq[(String, Array[Long])])

  /** Cross tabulation of two categorical columns (nested/stacked/heatmap). */
  final case class ContingencyTable(c1: String, c2: String,
                                    rowValues: Seq[String], colValues: Seq[String],
                                    counts: Array[Array[Long]])

  /** Missing-value bar chart + spectrum + nullity correlation + dendrogram. */
  final case class MissingBarChart(columns: Seq[String], missingCounts: Seq[Long], totalRows: Long)
  final case class MissingSpectrum(columns: Seq[String], buckets: Seq[(Long, Long)],
                                   missingFraction: Array[Array[Double]]) // [bucket][col]
  final case class MissingDendrogram(columns: Seq[String], merges: Seq[Dendrogram.Merge])

  /** Distribution of one column before/after dropping rows where another
    * column is missing (plot_missing(df, col1[, col2])).
    */
  final case class ImpactHistogram(column: String, edges: Array[Double],
                                   before: Array[Long], after: Array[Long])
  final case class ImpactFrequencies(column: String,
                                     values: Seq[(String, Long, Long)]) // value, before, after
  final case class ImpactBoxPlot(column: String, before: BoxPlot, after: BoxPlot)

  /** Whole-dataset statistics for the Overview tab. */
  final case class DatasetStats(rows: Long, columns: Int, numericColumns: Int,
                                categoricalColumns: Int, missingCells: Long,
                                totalCells: Long, duplicateRows: Long) {
    def missingFraction: Double = if (totalCells == 0) 0.0 else missingCells.toDouble / totalCells
  }
}
