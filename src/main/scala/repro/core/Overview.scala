package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** Overview task — plot(df): dataset statistics plus a histogram per
  * numerical column and a bar chart per categorical column (Figure 2, row 1).
  *
  * Pipeline: pass 1 over every column (the precompute stage, four jobs),
  * then one job for ALL histograms and one for ALL bar charts. Six Spark
  * actions total, independent of the number of columns.
  */
object Overview {

  final case class OverviewIntermediates(
      dataset: DatasetStats,
      numericStats: Seq[NumericStats],
      categoricalStats: Seq[CategoricalStats],
      histograms: Map[String, Histogram],
      frequencies: Map[String, CategoryFrequencies],
      insights: Seq[Insight])

  def compute(df: DataFrame, cfg: EdaConfig): OverviewIntermediates = {
    val numCols = TypeDetector.numericColumns(df)
    val catCols = TypeDetector.categoricalColumns(df)

    val aggs = SparkStage.columnAggregates(df, numCols, catCols)
    fromAggregates(cfg, numCols, catCols, aggs,
      SparkStage.histograms(df, numCols.map(aggs.numeric).filter(_.count > 0), cfg.int("hist.bins"))
        .map { case (c, b) => c -> b.histogram },
      SparkStage.frequencies(df, catCols, cfg.int("freq.maxdistinct")))
  }

  /** The overview from pass 1, the histograms of the numeric columns with
    * data and the value counts of the categorical columns.
    */
  def fromAggregates(cfg: EdaConfig, numCols: Seq[String], catCols: Seq[String],
                     aggs: SparkStage.TableAggregates, hists: Map[String, Histogram],
                     rawFreqs: Map[String, Seq[(String, Long)]]): OverviewIntermediates = {
    val numStats = numCols.map(aggs.numeric)
    val catStats = catCols.map(aggs.categorical)

    val topK = cfg.int("bar.topk")
    val freqs = catStats.map { s =>
      s.name -> CategoryFrequencies(s.name,
        rawFreqs.getOrElse(s.name, Nil).take(topK), s.distinct, s.count)
    }.toMap

    val dataset = DatasetStats(
      rows = aggs.rows, columns = numCols.size + catCols.size,
      numericColumns = numCols.size, categoricalColumns = catCols.size,
      missingCells = numStats.map(_.missing).sum + catStats.map(_.missing).sum,
      totalCells = aggs.rows * (numCols.size + catCols.size),
      duplicateRows = aggs.duplicateRows)

    val insights =
      numStats.flatMap(s => Insights.numeric(s, hists.get(s.name), outliers = 0L, cfg)) ++
      catStats.flatMap(s => Insights.categorical(s, cfg)) ++
      Insights.similarDistributions(numCols.flatMap(hists.get), cfg)

    OverviewIntermediates(dataset, numStats, catStats, hists, freqs, insights)
  }
}
