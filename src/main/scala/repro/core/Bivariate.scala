package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.StringType
import repro.core.Intermediates._

/** Bivariate task — plot(df, col1, col2) (Figure 2, row 3).
  *
  * NN → scatter plot, hexbin-substitute 2-D grid, binned box plot.
  * NC/CN → categorical box plot, multi-line chart.
  * CC → nested bar chart / stacked bar chart / heat map, all rendered from
  * one shared contingency-table reduction.
  */
object Bivariate {

  sealed trait BivariateIntermediates { def insights: Seq[Insight] }

  final case class NumNumBivariate(
      xStats: NumericStats, yStats: NumericStats,
      scatter: ScatterPlot, grid: Grid2D, binnedBox: BinnedBoxPlot,
      insights: Seq[Insight]) extends BivariateIntermediates

  final case class CatNumBivariate(
      catColumn: String, numColumn: String,
      boxes: CategoricalBoxPlot, lines: MultiLineChart,
      insights: Seq[Insight]) extends BivariateIntermediates

  final case class CatCatBivariate(
      table: ContingencyTable,
      insights: Seq[Insight]) extends BivariateIntermediates

  def compute(df: DataFrame, c1: String, c2: String, cfg: EdaConfig): BivariateIntermediates =
    (TypeDetector.typeOf(df, c1), TypeDetector.typeOf(df, c2)) match {
      case (ColumnType.Numerical, ColumnType.Numerical)     => numNum(df, c1, c2, cfg)
      case (ColumnType.Categorical, ColumnType.Numerical)   => catNum(df, c1, c2, cfg)
      case (ColumnType.Numerical, ColumnType.Categorical)   => catNum(df, c2, c1, cfg)
      case (ColumnType.Categorical, ColumnType.Categorical) => catCat(df, c1, c2, cfg)
    }

  def numNum(df: DataFrame, x: String, y: String, cfg: EdaConfig): NumNumBivariate = {
    val stats = SparkStage.numericStats(df, Seq(x, y))
    val xs = stats(x); val ys = stats(y)

    val (moments, scatter) = Correlation.scatterWithRegression(df, x, y, cfg)

    val grid = SparkStage.grids(df, Seq((xs, ys)), cfg.int("grid2d.xbins"), cfg.int("grid2d.ybins")).head

    // at most box.bins groups, so the limit keeps every bin
    val xBins = SparkStage.Bins.of(xs.min, xs.max, cfg.int("box.bins"))
    val binned = SparkStage.groupedFiveNumbers[Int](df, xBins.index(SparkStage.cleanNum(x)), y, xBins.n)
    val boxes = binned.sortBy(_._1).map { case (bin, _, qs) =>
      LocalStage.boxFromFiveNumbers(s"$x[$bin]", qs)
    }
    val binnedBox = BinnedBoxPlot(x, y, xBins.edges, boxes)

    NumNumBivariate(xs, ys, scatter, grid, binnedBox,
      Insights.highCorrelation(x, y, "pearson", moments.pearson, cfg).toSeq)
  }

  def catNum(df: DataFrame, cat: String, num: String, cfg: EdaConfig): CatNumBivariate = {
    val ns = SparkStage.numericStats(df, Seq(num))(num)
    val grouped = SparkStage.groupedFiveNumbers[String](df,
      SparkStage.colRef(cat).cast(StringType), num, cfg.int("nc.topk"))
    val boxes = CategoricalBoxPlot(cat, num, grouped.map { case (g, _, qs) =>
      g -> LocalStage.boxFromFiveNumbers(s"$num|$cat=$g", qs)
    })

    val cats = grouped.map(_._1)
    val bins = SparkStage.Bins.of(ns.min, ns.max, cfg.int("hist.bins"))
    val lineHists = SparkStage.groupedHistograms(df, cat, num, cats, bins)
    val lines = MultiLineChart(cat, num, bins.edges, cats.map(c => c -> lineHists(c)))

    CatNumBivariate(cat, num, boxes, lines, Nil)
  }

  def catCat(df: DataFrame, c1: String, c2: String, cfg: EdaConfig): CatCatBivariate = {
    val cells = SparkStage.contingency(df, c1, c2)
    val table = LocalStage.contingencyTable(c1, c2, cells, cfg.int("cc.topk"))
    CatCatBivariate(table, Nil)
  }
}
