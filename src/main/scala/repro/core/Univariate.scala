package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** Univariate task — plot(df, col1) (Figure 2, row 2).
  *
  * Numerical: column statistics, histogram, KDE plot, normal Q-Q plot, box
  * plot. The quantile grid from pass 1 is computed once and shared by the
  * stats table, the box plot, and the Q-Q plot; the histogram reduction is
  * shared by the histogram plot, the KDE, and the uniformity insight — the
  * paper's computation-sharing optimization.
  *
  * Categorical: column statistics, bar chart, pie chart, word cloud / word
  * frequencies (the bar and pie charts share one frequency reduction).
  */
object Univariate {

  sealed trait UnivariateIntermediates { def insights: Seq[Insight] }

  final case class NumericUnivariate(
      stats: NumericStats,
      histogram: Histogram,
      kde: KdeCurve,
      qq: QQPlot,
      box: BoxPlot,
      insights: Seq[Insight]) extends UnivariateIntermediates

  final case class CategoricalUnivariate(
      stats: CategoricalStats,
      frequencies: CategoryFrequencies,
      words: WordFrequencies,
      insights: Seq[Insight]) extends UnivariateIntermediates

  def compute(df: DataFrame, column: String, cfg: EdaConfig): UnivariateIntermediates =
    TypeDetector.typeOf(df, column) match {
      case ColumnType.Numerical   => numeric(df, column, cfg)
      case ColumnType.Categorical => categorical(df, column, cfg)
    }

  def numeric(df: DataFrame, column: String, cfg: EdaConfig): NumericUnivariate = {
    val s = SparkStage.numericStats(df, Seq(column))(column)
    fromStats(s, cfg, SparkStage.histograms(df, Seq(s).filter(_.count > 0), cfg.int("hist.bins")))
  }

  /** Numeric univariate from pass-1 stats and the histograms with their
    * outlier counts; a column with no data gets an empty histogram and no
    * outliers.
    */
  def fromStats(s: NumericStats, cfg: EdaConfig, binned: Map[String, SparkStage.BinnedColumn]): NumericUnivariate = {
    val hist = binned.get(s.name).fold(Histogram(s.name, Array(0.0, 1.0), Array(0L)))(_.histogram)
    val outliers = binned.get(s.name).fold(0L)(_.outliers)
    val kde = LocalStage.kdeCurve(s, hist, cfg.int("hist.gridpoints"))
    val qq = LocalStage.qqPlot(s, cfg.int("qq.points"))
    val box = LocalStage.boxPlot(s, outliers)
    val insights = Insights.numeric(s, Some(hist), outliers, cfg)
    NumericUnivariate(s, hist, kde, qq, box, insights)
  }

  def categorical(df: DataFrame, column: String, cfg: EdaConfig): CategoricalUnivariate = {
    val s = SparkStage.categoricalStats(df, Seq(column))(column)
    fromCatStats(s, cfg, SparkStage.frequencies(df, Seq(column), cfg.int("bar.topk")),
      SparkStage.wordFrequencies(df, column, cfg.int("wordfreq.topk")))
  }

  /** Categorical univariate from pass-1 stats, the top `bar.topk` value
    * counts and the word frequencies (empty in createReport, which omits
    * word clouds, matching the profile report).
    */
  def fromCatStats(s: CategoricalStats, cfg: EdaConfig, rawFreqs: Map[String, Seq[(String, Long)]],
                   words: WordFrequencies): CategoricalUnivariate = {
    val freq = CategoryFrequencies(s.name, rawFreqs.getOrElse(s.name, Nil), s.distinct, s.count)
    CategoricalUnivariate(s, freq, words, Insights.categorical(s, cfg))
  }
}
