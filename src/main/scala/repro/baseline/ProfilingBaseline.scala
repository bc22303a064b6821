package repro.baseline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.core._
import repro.core.SparkStage.cleanNum
import repro.core.Intermediates._
import repro.stats.LocalStats

/** The comparison baseline: a Pandas-profiling-style profiler.
  *
  * Pandas-profiling (and Modin, per Section 5.1) evaluates *eagerly*: every
  * statistic of every column is its own computation, and nothing is fused
  * across visualizations. This class reproduces that execution shape on
  * Spark — one Spark action per statistic per column, one action per
  * correlation pair, one per nullity pair — while producing numerically
  * identical intermediates to `Eda.computeReportIntermediates` (verified by
  * the cross-check suite), so the Table 2 comparison measures execution
  * strategy, not differing work.
  *
  * PhiK / Cramér's V / "recoded" correlations are omitted on both sides,
  * matching the paper's experimental setup (Section 6.1).
  */
object ProfilingBaseline {

  private def firstDouble(df: DataFrame, e: Column): Double = {
    val r = df.agg(e).head()
    if (r.isNullAt(0)) Double.NaN else r.get(0) match {
      case d: Double => d
      case n: Number => n.doubleValue
      case o => throw new IllegalStateException(s"expected double, got $o")
    }
  }

  private def firstLong(df: DataFrame, e: Column): Long = {
    val r = df.agg(e).head()
    if (r.isNullAt(0)) 0L else r.get(0) match {
      case l: Long => l
      case n: Number => n.longValue
      case o => throw new IllegalStateException(s"expected long, got $o")
    }
  }

  /** One eager action per statistic — the defining inefficiency. */
  def numericStats(df: DataFrame, c: String): NumericStats = {
    val raw = col(c).cast(DoubleType)
    val x = cleanNum(c)
    val count = firstLong(df, org.apache.spark.sql.functions.count(x))
    val missing = firstLong(df, org.apache.spark.sql.functions.count(when(raw.isNull || isnan(raw), 1)))
    val infinites = firstLong(df, org.apache.spark.sql.functions.count(when(abs(raw) === Double.PositiveInfinity, 1)))
    val distinct = firstLong(df, count_distinct(x))
    val mean = firstDouble(df, avg(x))
    val std = firstDouble(df, stddev_samp(x))
    val mn = firstDouble(df, min(x))
    val mx = firstDouble(df, max(x))
    val skew = firstDouble(df, skewness(x))
    val kurt = firstDouble(df, kurtosis(x))
    val sm = firstDouble(df, sum(x))
    val zeros = firstLong(df, org.apache.spark.sql.functions.count(when(x === 0.0, 1)))
    val negatives = firstLong(df, org.apache.spark.sql.functions.count(when(x < 0.0, 1)))
    val pRow = df.agg(percentile_approx(x, lit(SparkStage.PercentileProbs), lit(10000))).head()
    val percentiles =
      if (pRow.isNullAt(0)) Array.empty[Double] else pRow.getSeq[Double](0).toArray
    NumericStats(c, count, missing, distinct, mean, std, mn, mx, skew, kurt,
      zeros, negatives, infinites, sm, percentiles)
  }

  def categoricalStats(df: DataFrame, c: String): CategoricalStats = {
    val s = col(c).cast(StringType)
    CategoricalStats(c,
      count = firstLong(df, org.apache.spark.sql.functions.count(s)),
      missing = firstLong(df, org.apache.spark.sql.functions.count(when(s.isNull, 1))),
      distinct = firstLong(df, count_distinct(s)),
      minLength = firstLong(df, min(length(s))),
      maxLength = firstLong(df, max(length(s))),
      avgLength = firstDouble(df, avg(length(s))))
  }

  /** One histogram job per column (no posexplode fusion). */
  def histogram(df: DataFrame, c: String, mn: Double, mx: Double, bins: Int): Histogram = {
    val w0 = (mx - mn) / bins
    val w = if (w0.isNaN || w0.isInfinite || w0 <= 0) 1.0 else w0
    val x = cleanNum(c)
    val bin = least(lit(bins - 1), greatest(lit(0), floor((x - mn) / w))).cast("int")
    val rows = df.where(x.isNotNull).groupBy(bin.as("bin")).count().collect()
    val counts = new Array[Long](bins)
    rows.foreach { r =>
      val b = r.getInt(0); if (b >= 0 && b < bins) counts(b) += r.getLong(1)
    }
    Histogram(c, Array.tabulate(bins + 1)(i => mn + i * w), counts)
  }

  /** One frequency job per column. */
  def frequencies(df: DataFrame, c: String, maxDistinct: Int): Seq[(String, Long)] =
    df.where(col(c).isNotNull)
      .groupBy(col(c).cast(StringType).as("v")).count()
      .orderBy(col("count").desc, col("v"))
      .limit(maxDistinct)
      .collect()
      .map(r => (r.getString(0), r.getLong(1))).toSeq

  /** One action per correlation pair per method. */
  def pearsonPair(df: DataFrame, a: String, b: String): LocalStats.PairMoments =
    SparkStage.pairwiseMoments(df, Seq((a, b)))((a, b))

  def spearmanPair(df: DataFrame, a: String, b: String, rows: Long, maxRows: Long): Double = {
    val m = SparkStage.collectNumericMatrix(df, Seq(a, b), rows, maxRows) // action per pair
    LocalStage.spearmanFromMatrix(Seq(a, b), m)((a, b))
  }

  def kendallPair(df: DataFrame, a: String, b: String, rows: Long, maxRows: Long): Double = {
    val m = SparkStage.collectNumericMatrix(df, Seq(a, b), rows, maxRows)
    LocalStage.kendallFromMatrix(Seq(a, b), m)((a, b))
  }

  /** The eager profile report: same intermediates as the optimized path,
    * one Spark action per piece of work.
    */
  def computeReportIntermediates(df: DataFrame, cfg: EdaConfig): Eda.ReportIntermediates = {
    EngineTuning.tune(df.sparkSession) // same session tuning as the optimized path
    val numCols = TypeDetector.numericColumns(df)
    val catCols = TypeDetector.categoricalColumns(df)
    val bins = cfg.int("hist.bins")

    val rows = df.count()
    val allCols = df.columns.toSeq
    val dups = rows - firstLong(df,
      count_distinct(struct(allCols.map(c => col(c).cast(StringType)): _*)))

    // per-column eager stats
    val numStats = numCols.map(c => c -> numericStats(df, c)).toMap
    val catStats = catCols.map(c => c -> categoricalStats(df, c)).toMap

    val withData = numCols.map(numStats).filter(_.count > 0)
    val hists = withData.map(s => s.name -> histogram(df, s.name, s.min, s.max, bins)).toMap
    val rawFreqs = catCols.map(c => c -> frequencies(df, c, cfg.int("freq.maxdistinct"))).toMap
    val outliers = withData.map { s =>
      val (lo, hi) = LocalStage.fences(s)
      s.name -> SparkStage.outlierCounts(df, Seq((s.name, lo, hi)))(s.name) // one action each
    }.toMap

    // assemble overview + variables from the eager pieces (local work)
    val aggs = SparkStage.TableAggregates(rows, dups, numStats, catStats)
    val overview = Overview.fromAggregates(df, cfg, numCols, catCols, aggs,
      sharedHists = Some(hists), sharedFreqs = Some(rawFreqs))
    val variables: Seq[Univariate.UnivariateIntermediates] =
      numCols.map { c =>
        Univariate.fromStats(df, numStats(c), cfg,
          sharedHistogram = Some(hists.getOrElse(c, Histogram(c, Array(0.0, 1.0), Array(0L)))),
          sharedOutliers = Some(outliers.getOrElse(c, 0L)))
      } ++ catCols.map { c =>
        Univariate.fromCatStats(df, catStats(c), cfg,
          sharedFrequencies = Some(rawFreqs.getOrElse(c, Nil)), withWords = false)
      }

    // interactions, one job per pair (same pair budget as the optimized path)
    val k = cfg.int("report.interactions")
    val pairsI = (for (i <- withData.indices; j <- i + 1 until withData.size)
      yield (withData(i), withData(j))).take(k)
    val interactions = pairsI.map { case (a, b) =>
      SparkStage.grid2d(df, a.name, b.name, a.min, a.max, b.min, b.max,
        cfg.int("grid2d.xbins"), cfg.int("grid2d.ybins"))
    }

    // correlations, one action per pair per method
    val corrCols = numCols.take(cfg.int("corr.maxcols"))
    val pairs = for (i <- corrCols.indices; j <- i + 1 until corrCols.size)
      yield (corrCols(i), corrCols(j))
    val hasVariance = (c: String) => {
      val s = numStats(c); s.count > 1 && !s.std.isNaN && s.std > 0
    }
    val maxKendall = cfg.long("corr.maxrows")
    val matrices = cfg.strings("corr.methods").map {
      case "pearson" =>
        LocalStage.correlationMatrix("pearson", corrCols,
          pairs.map(p => p -> pearsonPair(df, p._1, p._2).pearson).toMap, hasVariance)
      case "spearman" =>
        LocalStage.correlationMatrix("spearman", corrCols,
          pairs.map(p => p -> spearmanPair(df, p._1, p._2, rows, maxKendall)).toMap, hasVariance)
      case "kendall" =>
        LocalStage.correlationMatrix("kendall", corrCols,
          pairs.map(p => p -> kendallPair(df, p._1, p._2, rows, maxKendall)).toMap, hasVariance)
    }
    val correlations = Correlation.CorrelationIntermediates(corrCols,
      if (corrCols.size < 2) Nil else matrices,
      if (corrCols.size < 2) Nil
      else matrices.flatMap(m => Insights.highCorrelations(m, cfg)))

    val missing = missingOverview(df, cfg, rows)

    Eda.ReportIntermediates(overview, variables, interactions, correlations, missing)
  }

  /** Eager missing-value overview: one action per column for the bar chart,
    * one spectrum reduction per column, one both-missing action per nullity
    * pair; assembled by the same `Missing.assembleOverview` as the fused path.
    */
  def missingOverview(df: DataFrame, cfg: EdaConfig, rows: Long): Missing.MissingOverviewIntermediates = {
    val cols = df.columns.toSeq
    val missingCounts = cols.map(c =>
      firstLong(df, count(when(SparkStage.isMissing(df, c), 1)))) // action per column

    // spectrum: one pass per column (missingno-as-eager shape)
    val perCol = cols.map(c => SparkStage.missingSpectrum(df, Seq(c), cfg.int("spectrum.bins")))
    val buckets = perCol.headOption.map(_.buckets).getOrElse(Nil)
    val fractions = Array.tabulate(buckets.size, cols.size)((b, c) =>
      perCol(c).missingFraction(b)(0))

    Missing.assembleOverview(cols, rows, missingCounts, MissingSpectrum(cols, buckets, fractions),
      (i, j) => firstLong(df, count(when( // action per pair
        SparkStage.isMissing(df, cols(i)) && SparkStage.isMissing(df, cols(j)), 1))), cfg)
  }

  def createReport(df: DataFrame, config: Map[String, Any] = Map.empty): ReportModel.Report = {
    val cfg = EdaConfig.from(config)
    Render.fullReport(computeReportIntermediates(df, cfg), cfg)
  }
}
