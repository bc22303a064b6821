package repro.baseline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.core._
import repro.core.SparkStage.{Bins, cleanNum, colRef, distinctRows, getDouble, getLong}
import repro.core.Intermediates._

/** The comparison baseline: a Pandas-profiling-style profiler.
  *
  * Pandas-profiling (and Modin, per Section 5.1) evaluates *eagerly*: every
  * statistic of every column is its own computation, and nothing is fused
  * across visualizations. This object reproduces that execution shape on
  * Spark as an implementation of `Reductions` — one Spark action per
  * statistic per column, one action per correlation pair per method, one
  * per interaction grid, one per pair of columns that both have missing
  * values — and holds no assembly code: its report comes from the same
  * `Eda.computeReportIntermediates(df, cfg, r)` as the fused one, so the
  * Table 2 comparison measures execution strategy, not differing work.
  * Its Pearson coefficients come from per-pair moments rather than the
  * collected sample, so the cross-check suite still compares two
  * computations.
  *
  * PhiK / Cramér's V / "recoded" correlations are omitted on both sides,
  * matching the paper's experimental setup (Section 6.1).
  */
object ProfilingBaseline extends Reductions {

  /** One statistic, one Spark action. */
  private def firstDouble(df: DataFrame, e: Column): Double = getDouble(df.agg(e).head(), 0)
  private def firstLong(df: DataFrame, e: Column): Long = getLong(df.agg(e).head(), 0)

  /** One eager action per statistic per column — the defining inefficiency. */
  def numericStats(df: DataFrame, cols: Seq[String]): Map[String, NumericStats] = cols.map { c =>
    val raw = colRef(c).cast(DoubleType)
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
    val pRow = df.agg(SparkStage.quantiles(x, SparkStage.PercentileProbs)).head()
    val percentiles =
      if (pRow.isNullAt(0)) Array.empty[Double] else pRow.getSeq[Double](0).toArray
    c -> NumericStats(c, count, missing, distinct, mean, std, mn, mx, skew, kurt,
      zeros, negatives, infinites, sm, percentiles)
  }.toMap

  def categoricalStats(df: DataFrame, cols: Seq[String]): Map[String, CategoricalStats] = cols.map { c =>
    val s = colRef(c).cast(StringType)
    c -> CategoricalStats(c,
      count = firstLong(df, org.apache.spark.sql.functions.count(s)),
      missing = firstLong(df, org.apache.spark.sql.functions.count(when(s.isNull, 1))),
      distinct = firstLong(df, count_distinct(s)),
      minLength = firstLong(df, min(length(s))),
      maxLength = firstLong(df, max(length(s))),
      avgLength = firstDouble(df, avg(length(s))))
  }.toMap

  /** The row count, then the distinct rows: one action each. */
  def tableCounts(df: DataFrame): (Long, Long) = {
    val rows = df.count()
    (rows, if (df.columns.isEmpty) 0L else rows - firstLong(df, distinctRows(df)))
  }

  /** One histogram job and one outlier-count action per column (no
    * posexplode fusion).
    */
  def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, SparkStage.BinnedColumn] =
    stats.map { s =>
      val b = Bins.of(s.min, s.max, bins)
      val x = cleanNum(s.name)
      val rows = df.where(x.isNotNull).groupBy(b.index(x).as("bin")).count().collect()
      val hist = Histogram(s.name, b.edges, b.counts(rows.map(r => (r.getInt(0), r.getLong(1)))))
      val (lo, hi) = LocalStage.fences(s)
      s.name -> SparkStage.BinnedColumn(hist, hist.counts, firstLong(df, count(when(x < lo || x > hi, 1))))
    }.toMap

  /** One frequency job per column. */
  def frequencies(df: DataFrame, cols: Seq[String], topK: Int): Map[String, Seq[(String, Long)]] =
    cols.map(c => c -> df.where(colRef(c).isNotNull)
      .groupBy(colRef(c).cast(StringType).as("v")).count()
      .orderBy(col("count").desc, col("v"))
      .limit(topK)
      .collect()
      .map(r => (r.getString(0), r.getLong(1))).toSeq).toMap

  /** One 2-D grid job per pair. */
  def grids(df: DataFrame, pairs: Seq[(NumericStats, NumericStats)], xBins: Int, yBins: Int): Seq[Grid2D] =
    pairs.map { case (a, b) =>
      val (xb, yb) = (Bins.of(a.min, a.max, xBins), Bins.of(b.min, b.max, yBins))
      val x = cleanNum(a.name); val y = cleanNum(b.name)
      val byX = df.where(x.isNotNull && y.isNotNull)
        .groupBy(xb.index(x).as("xb"), yb.index(y).as("yb"))
        .count().collect()
        .toSeq.groupMap(_.getInt(0))(r => (r.getInt(1), r.getLong(2)))
      Grid2D(a.name, b.name, xb.edges, yb.edges, Array.tabulate(xBins)(i => yb.counts(byX.getOrElse(i, Nil))))
    }

  /** One action per pair per method: Pearson from the pair's moments,
    * Spearman and Kendall from the fused reduction run on that pair alone.
    */
  def correlations(df: DataFrame, cols: Seq[String], pairs: Seq[(Int, Int)], rows: Long,
                   methods: Seq[String], maxRows: Long): Map[String, Map[(String, String), Double]] =
    methods.map(m => m -> pairs.map { case (i, j) =>
      val p @ (a, b) = (cols(i), cols(j))
      p -> (if (m == "pearson") SparkStage.pairMoments(df, a, b).pearson
            else SparkStage.correlations(df, Seq(a, b), Seq((0, 1)), rows, Seq(m), maxRows)(m)(p))
    }.toMap).toMap

  /** One action per column for the bar chart, one spectrum reduction per
    * column, and one both-missing action per pair of columns that both have
    * missing values (0 for any other pair, with no action).
    */
  def missing(df: DataFrame, cols: Seq[String], nBuckets: Int): Missing.MissingCounts = {
    val missingCounts = cols.map(c => firstLong(df, count(when(SparkStage.isMissing(df, c), 1))))
    val perColumn = cols.map(c => SparkStage.missing(df, Seq(c), nBuckets))
    val spectra = perColumn.map(_.spectrum)
    val buckets = spectra.headOption.map(_.buckets).getOrElse(Nil)
    val fractions = Array.tabulate(buckets.size, cols.size)((b, c) => spectra(c).missingFraction(b)(0))
    val both = Array.ofDim[Long](cols.size, cols.size)
    for (i <- cols.indices) {
      both(i)(i) = missingCounts(i)
      for (j <- i + 1 until cols.size if missingCounts(i) > 0 && missingCounts(j) > 0) {
        both(i)(j) = firstLong(df, count(when(
          SparkStage.isMissing(df, cols(i)) && SparkStage.isMissing(df, cols(j)), 1)))
        both(j)(i) = both(i)(j)
      }
    }
    // each column's reduction counts the rows; only a table with no columns needs a count
    Missing.MissingCounts(perColumn.headOption.fold(df.count())(_.rows), both,
      MissingSpectrum(cols, buckets, fractions))
  }
}
