package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** Overview task — plot(df): dataset statistics plus a histogram per
  * numerical column and a bar chart per categorical column (Figure 2, row 1).
  *
  * Pipeline: pass 1 (the precompute stage) as three concurrent reductions
  * — numeric statistics (two jobs), categorical statistics and the table's
  * row and duplicate-row counts (one job each) — beside one job for ALL
  * bar charts, then one job for ALL histograms, whose bins need pass 1.
  * Six Spark actions total, independent of the number of columns.
  */
object Overview {

  final case class OverviewIntermediates(
      dataset: DatasetStats,
      numericStats: Seq[NumericStats],
      categoricalStats: Seq[CategoricalStats],
      histograms: Map[String, Histogram],
      frequencies: Map[String, CategoryFrequencies],
      insights: Seq[Insight])

  def compute(df: DataFrame, cfg: EdaConfig): OverviewIntermediates = compute(df, cfg, SparkStage)

  /** The overview from the reductions `r`, so the fused, per-plot and eager
    * strategies of Figure 6(a) differ only in how those execute.
    */
  private[repro] def compute(df: DataFrame, cfg: EdaConfig, r: Reductions): OverviewIntermediates = {
    val numCols = TypeDetector.numericColumns(df)
    val catCols = TypeDetector.categoricalColumns(df)

    val (numeric, categorical, counts, freqs) = Concurrently(df.sparkSession.sparkContext)(
      r.numericStats(df, numCols), r.categoricalStats(df, catCols), r.tableCounts(df),
      r.frequencies(df, catCols, cfg.int("bar.topk")))
    val numStats = numCols.map(numeric)
    fromAggregates(cfg, numStats, catCols.map(categorical), counts,
      r.histograms(df, numStats.filter(_.count > 0), cfg.int("hist.bins"))
        .map { case (c, b) => c -> b.histogram }, freqs)
  }

  /** The overview from pass 1 (the column stats in schema order and the
    * table's (rows, duplicate rows)), the histograms of the numeric columns
    * with data and the top `bar.topk` value counts of the categorical columns.
    */
  def fromAggregates(cfg: EdaConfig, numStats: Seq[NumericStats], catStats: Seq[CategoricalStats],
                     counts: (Long, Long), hists: Map[String, Histogram],
                     rawFreqs: Map[String, Seq[(String, Long)]]): OverviewIntermediates = {
    val (rows, duplicateRows) = counts
    val columns = numStats.size + catStats.size

    val freqs = catStats.map { s =>
      s.name -> CategoryFrequencies(s.name, rawFreqs.getOrElse(s.name, Nil), s.distinct, s.count)
    }.toMap

    val dataset = DatasetStats(
      rows = rows, columns = columns,
      numericColumns = numStats.size, categoricalColumns = catStats.size,
      missingCells = numStats.map(_.missing).sum + catStats.map(_.missing).sum,
      totalCells = rows * columns,
      duplicateRows = duplicateRows)

    val insights =
      numStats.flatMap(s => Insights.numeric(s, hists.get(s.name), outliers = 0L, cfg)) ++
      catStats.flatMap(s => Insights.categorical(s, cfg)) ++
      Insights.similarDistributions(numStats.flatMap(s => hists.get(s.name)), cfg)

    OverviewIntermediates(dataset, numStats, catStats, hists, freqs, insights)
  }
}
