package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._
import repro.core.ReportModel.Report

/** DataPrep.EDA's task-centric API (Section 3.2), ported to Scala/Spark:
  * one function per task family, dispatching on the columns it is given
  * (Figure 2) —
  *
  * - `plot(df)` — "I want an overview of the dataset"
  * - `plot(df, col1)` — "I want to understand col1"
  * - `plot(df, col1, col2)` — "I want to understand their relationship"
  * - `plotCorrelation(df[, col1[, col2]])` — correlation analysis
  * - `plotMissing(df[, col1[, col2]])` — missing-value analysis
  * - `createReport(df)` — the full profile report (Table 2's workload)
  *
  * Every call takes an optional `config` map of dotted keys (e.g.
  * `config = Map("hist.bins" -> 200)`), exactly the customization flow of
  * Figure 1. An absent column is `null`, like the paper's `None`.
  */
object Eda {

  /** Validate the user config, then tune the session for the interactive
    * small-data regime (see EngineTuning) — the paper's engine-choice step;
    * a rejected config leaves the session as it was.
    */
  private def cfgOf(df: DataFrame, config: Map[String, Any]): EdaConfig = {
    val cfg = EdaConfig.from(config)
    EngineTuning.tune(df.sparkSession)
    cfg
  }

  /** The columns a call names, in order: none, col1, or col1 and col2. */
  private def columnsOf(task: String, col1: String, col2: String): Seq[String] = {
    require(col1 != null || col2 == null, s"$task: col2 '$col2' given without col1")
    Seq(col1, col2).takeWhile(_ != null)
  }

  def plot(df: DataFrame, col1: String = null, col2: String = null,
           config: Map[String, Any] = Map.empty): Report = {
    val cols = columnsOf("plot", col1, col2)
    val cfg = cfgOf(df, config)
    cols match {
      case Seq()     => Render.overviewReport(Overview.compute(df, cfg), cfg)
      case Seq(a)    => Render.univariateReport(Univariate.compute(df, a, cfg), cfg)
      case Seq(a, b) => Render.bivariateReport(Bivariate.compute(df, a, b, cfg), cfg)
    }
  }

  def plotCorrelation(df: DataFrame, col1: String = null, col2: String = null,
                      config: Map[String, Any] = Map.empty): Report = {
    val cols = columnsOf("plot_correlation", col1, col2)
    val cfg = cfgOf(df, config)
    cols match {
      case Seq()     => Render.correlationReport(Correlation.matrix(df, cfg), cfg)
      case Seq(a)    => Render.correlationVectorReport(Correlation.vector(df, a, cfg), cfg)
      case Seq(a, b) => Render.correlationPairReport(Correlation.pair(df, a, b, cfg), cfg)
    }
  }

  def plotMissing(df: DataFrame, col1: String = null, col2: String = null,
                  config: Map[String, Any] = Map.empty): Report = {
    val cols = columnsOf("plot_missing", col1, col2)
    val cfg = cfgOf(df, config)
    cols match {
      case Seq()     => Render.missingReport(Missing.overview(df, cfg), cfg)
      case Seq(a)    => Render.missingImpactReport(Missing.impact(df, a, cfg), cfg)
      case Seq(a, b) => Render.missingPairReport(Missing.pair(df, a, b, cfg), cfg)
    }
  }

  // ---- create_report ---------------------------------------------------------

  /** Everything the profile report needs, computed with shared passes. */
  final case class ReportIntermediates(
      overview: Overview.OverviewIntermediates,
      variables: Seq[Univariate.UnivariateIntermediates],
      interactions: Seq[Grid2D],
      correlations: Correlation.CorrelationIntermediates,
      missing: Missing.MissingOverviewIntermediates)

  /** The fused report pipeline (the DataPrep.EDA column of Table 2): 9
    * Spark actions regardless of column count, in two waves of concurrent
    * jobs —
    *
    *  1. wave 1, the reductions that need nothing computed first: pass 1
    *     (the precompute stage) as the numeric statistics of every numeric
    *     column (two jobs) and the table's row and duplicate-row counts (one
    *     job), shared by the Overview section, every Variables section and
    *     the correlation variance bookkeeping; one job for all frequency
    *     tables, which also gives every categorical column's statistics;
    *     and, for missing values, one row-count job and one
    *     `groupBy(spectrum bucket, missing pattern)` job, read into the row
    *     count, the spectrum and the both-missing count of every column pair
    *     (bar counts, nullity correlation and dendrogram all come from that
    *     count matrix);
    *  2. wave 2, the reductions whose plans take literals from pass 1: one
    *     job for all histograms with their outlier counts, one for all
    *     `report.interactions` 2-D grids, and one reduce-to-driver collect
    *     feeding local Pearson, Spearman and Kendall, which sort each column
    *     once (`LocalStage.coefficients`); none when `corr.methods` is empty.
    */
  def computeReportIntermediates(df: DataFrame, cfg: EdaConfig): ReportIntermediates =
    computeReportIntermediates(df, cfg, SparkStage)

  /** The one report assembly: every section from the reductions `r`, so
    * the fused and the eager report differ only in how those execute. The
    * independent reductions of each wave run as concurrent tasks.
    */
  private[repro] def computeReportIntermediates(df: DataFrame, cfg: EdaConfig,
                                                r: Reductions): ReportIntermediates = {
    EngineTuning.tune(df.sparkSession)
    val concurrently = Concurrently(df.sparkSession.sparkContext)
    val numCols = TypeDetector.numericColumns(df)
    val catCols = TypeDetector.categoricalColumns(df)
    val cols = df.columns.toSeq

    val (numeric, counts, categorical, missingCounts) = concurrently(
      r.numericStats(df, numCols),
      r.tableCounts(df),
      r.frequencies(df, catCols, cfg.int("bar.topk")),
      r.missing(df, cols, cfg.int("spectrum.bins")))

    // Interactions: 2-D grids for the first k numeric pairs with data
    val numStats = numCols.map(numeric)
    val catColumns = catCols.map(categorical)
    val withData = numStats.filter(_.count > 0)
    val pairs = (for (i <- withData.indices; j <- i + 1 until withData.size)
      yield (withData(i), withData(j))).take(cfg.int("report.interactions"))
    val corrCols = numCols.take(cfg.int("corr.maxcols"))

    val (binned, interactions, coefficients) = concurrently(
      r.histograms(df, withData, cfg.int("hist.bins")),
      r.grids(df, pairs, cfg.int("grid2d.xbins"), cfg.int("grid2d.ybins")),
      r.correlations(df, corrCols, Correlation.allPairs(corrCols.size), counts._1,
        cfg.strings("corr.methods"), cfg.long("corr.maxrows")))

    val overview = Overview.fromAggregates(cfg, numStats, catColumns, counts,
      binned.map { case (c, b) => c -> b.histogram })
    val variables: Seq[Univariate.UnivariateIntermediates] =
      numStats.map(Univariate.fromStats(_, cfg, binned)) ++
        catColumns.map(c => Univariate.fromCounts(c, cfg, WordFrequencies(c.stats.name, Nil, 0L)))
    val correlations = Correlation.matrixFromAggregates(corrCols, numeric, coefficients, cfg)
    val missing = Missing.assembleOverview(cols, missingCounts, cfg)

    ReportIntermediates(overview, variables, interactions, correlations, missing)
  }

  /** The config is validated here; `computeReportIntermediates` tunes the session. */
  def createReport(df: DataFrame, config: Map[String, Any] = Map.empty): Report = {
    val cfg = EdaConfig.from(config)
    Render.fullReport(computeReportIntermediates(df, cfg), cfg)
  }
}
