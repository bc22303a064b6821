package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.core.Intermediates._
import repro.stats.LocalStats.PairMoments

/** The distributed stage of the Compute module (Section 5.2's "Dask
  * computation"), expressed as Spark DataFrame plans.
  *
  * Design rule, mirroring the paper's single-graph optimization: one
  * reduction per kind, each running O(1) Spark actions however many
  * columns or pairs it covers — one action for most, two for
  * `numericStats` and for `missing`. Multi-column work is fused
  * into `posexplode → groupBy(columnIndex, …)` jobs, so the
  * aggregate-expression set stays constant-size whatever the width. Values
  * the plan needs as literals (bin widths, Tukey fences) come from a prior
  * `numericStats` pass — the analog of the paper's eager chunk-size
  * precompute stage.
  *
  * It is also the fused implementation of `Reductions`, the reductions the
  * profile report is assembled from.
  */
object SparkStage extends Reductions {

  /** Quantile grid computed for every numeric column: 0, 0.01..0.99, 1. */
  val PercentileProbs: Array[Double] =
    (0.0 +: (1 to 99).map(_ / 100.0) :+ 1.0).toArray

  private val PercentileAccuracy = 10000

  /** Seed of the row samples (correlation matrix, scatter points). */
  private val SampleSeed = 42L

  /** Approximate quantiles of `x` at `probs`, at one accuracy everywhere. */
  private[repro] def quantiles(x: Column, probs: Array[Double]): Column =
    percentile_approx(x, lit(probs), lit(PercentileAccuracy))

  /** Approximate [min, q1, median, q3, max] of `x` (box plots). */
  private[repro] def fiveNumbers(x: Column): Column = quantiles(x, Array(0.0, 0.25, 0.5, 0.75, 1.0))

  /** Numeric column normalized to Double with NaN/±Inf mapped to null, so
    * every moment/histogram/rank sees only finite values.
    */
  private[repro] def cleanNum(c: String): Column = {
    val x = colRef(c).cast(DoubleType)
    when(isnan(x) || x === Double.PositiveInfinity || x === Double.NegativeInfinity,
      lit(null).cast(DoubleType)).otherwise(x)
  }

  /** A top-level column by exact name; backticks keep a `.` from naming a nested field. */
  private[repro] def colRef(c: String): Column = col("`" + c.replace("`", "``") + "`")

  /** Missing test that also treats NaN as missing for numeric columns. */
  private[repro] def isMissing(df: DataFrame, c: String): Column =
    TypeDetector.typeOf(df, c) match {
      case ColumnType.Numerical =>
        val x = colRef(c).cast(DoubleType)
        x.isNull || isnan(x)
      case ColumnType.Categorical => colRef(c).isNull
    }

  private[repro] def getLong(r: Row, i: Int): Long = if (r.isNullAt(i)) 0L else r.get(i) match {
    case l: Long => l
    case n: Number => n.longValue
    case other => throw new IllegalStateException(s"expected long at $i, got $other")
  }

  private[repro] def getDouble(r: Row, i: Int): Double = if (r.isNullAt(i)) Double.NaN else r.get(i) match {
    case d: Double => d
    case n: Number => n.doubleValue
    case other => throw new IllegalStateException(s"expected double at $i, got $other")
  }

  /** Pass-1 statistics of every listed numeric column: totals, missing,
    * distincts, moments, quantile grids and zero/negative/infinite counts.
    *
    * Execution shape: two concurrent `posexplode → groupBy(columnIndex)`
    * jobs for ALL listed columns, and none when no column is listed.
    * Grouping by column index keeps the aggregate-expression set
    * constant-size, so Catalyst planning and codegen stay O(1) as tables get
    * wider (a wide flat `agg` with 14 expressions *per column* spends tens
    * of seconds in planning/janino before touching any data).
    */
  def numericStats(df: DataFrame, cols: Seq[String]): Map[String, NumericStats] = {
    if (cols.isEmpty) return Map.empty
    // The plans, built (and analyzed) by the task that runs them.
    val raw = col("s.raw"); val v = col("s.v")
    lazy val exploded = df.select(posexplode(array(cols.map { c =>
      struct(colRef(c).cast(DoubleType).as("raw"), cleanNum(c).as("v"))
    }: _*)).as(Seq("pos", "s")))
    lazy val numericAgg = exploded
      .groupBy(col("pos"))
      .agg(
        count(v),                                             // finite count
        count(when(raw.isNull || isnan(raw), 1)),             // missing (null+NaN)
        count(when(abs(raw) === Double.PositiveInfinity, 1)), // infinites
        avg(v), stddev_samp(v), min(v), max(v), skewness(v), kurtosis(v), sum(v),
        count(when(v === 0.0, 1)),
        count(when(v < 0.0, 1)),
        quantiles(v, PercentileProbs),
      )
    // distinct counts separately: a distinct aggregate next to the
    // TypedImperative percentile forces a sort-aggregate over the
    // expanded rows — two fast hash aggs beat one slow sort agg.
    lazy val distinctAgg = exploded.groupBy(col("pos")).agg(count_distinct(v))

    // The actions, inline so that each job's call site is numericStats.
    val Seq(moments, distincts) = Concurrently(df.sparkSession.sparkContext)(
      Seq(() => numericAgg.collect(), () => distinctAgg.collect()))

    val distinctByPos = distincts.map(r => r.getInt(0) -> getLong(r, 1)).toMap
    val momentsByPos = moments.map(r => r.getInt(0) -> r).toMap
    cols.zipWithIndex.map { case (c, p) =>
      c -> (momentsByPos.get(p) match {
        case Some(r) => NumericStats(
          name = c,
          count = getLong(r, 1), missing = getLong(r, 2),
          infinites = getLong(r, 3), distinct = distinctByPos.getOrElse(p, 0L),
          mean = getDouble(r, 4), std = getDouble(r, 5),
          min = getDouble(r, 6), max = getDouble(r, 7),
          skewness = getDouble(r, 8), kurtosis = getDouble(r, 9),
          sum = getDouble(r, 10),
          zeros = getLong(r, 11), negatives = getLong(r, 12),
          percentiles =
            if (r.isNullAt(13)) Array.empty[Double]
            else r.getSeq[Double](13).toArray)
        case None => NumericStats(c, 0, 0, 0, Double.NaN, Double.NaN, Double.NaN,
          Double.NaN, Double.NaN, Double.NaN, 0, 0, 0, Double.NaN, Array.empty)
      })
    }.toMap
  }

  /** Distinct rows of `df`, every column compared as a string. */
  private[repro] def distinctRows(df: DataFrame): Column =
    count_distinct(struct(df.columns.toSeq.map(c => colRef(c).cast(StringType)): _*))

  /** (rows, duplicate rows) of the table, one action; a table with no
    * columns has no duplicates.
    */
  def tableCounts(df: DataFrame): (Long, Long) =
    if (df.columns.isEmpty) (df.count(), 0L)
    else {
      val r = df.agg(count(lit(1)), distinctRows(df)).head()
      (getLong(r, 0), getLong(r, 0) - getLong(r, 1))
    }

  // ---------------------------------------------------------------------
  // Histograms: ALL numeric columns in one posexplode → groupBy job.
  // ---------------------------------------------------------------------

  /** The literal of the exploded column at `pos`, one per column. */
  private def atPos(xs: Seq[Double]): Column = element_at(array(xs.map(lit(_)): _*), col("pos") + 1)

  /** `n` bins of `width` from `lo`: the one binning rule of every histogram,
    * grid and binned box plot. Built by `Bins.of` from a column's finite min
    * and max.
    */
  final case class Bins(lo: Double, width: Double, n: Int) {
    def edges: Array[Double] = Array.tabulate(n + 1)(lo + _ * width)

    /** The bin of `x`, null where `x` is null. */
    def index(x: Column): Column = Bins.index(x, lit(lo), lit(width), n)

    /** Dense counts from (bin, count) cells. */
    def counts(cells: Iterable[(Int, Long)]): Array[Long] = {
      val out = new Array[Long](n)
      cells.foreach { case (b, c) => if (b >= 0 && b < n) out(b) += c }
      out
    }
  }

  object Bins {
    /** Bins of [min, max]: a width of 1.0 when the range is empty, undefined
      * or overflows a double, and a start at 0.0 when `min` is NaN (the
      * column has no finite value).
      */
    def of(min: Double, max: Double, n: Int): Bins = {
      val w = (max - min) / n
      Bins(if (min.isNaN) 0.0 else min, if (w.isNaN || w.isInfinite || w <= 0) 1.0 else w, n)
    }

    /** Bin of `x` in `n` bins of `width` from `lo`, with values outside the
      * range clamped to the first or last bin; the fused histogram passes
      * per-position literals.
      */
    private[SparkStage] def index(x: Column, lo: Column, width: Column, n: Int): Column =
      when(x.isNotNull, least(lit(n - 1), greatest(lit(0), floor((x - lo) / width))).cast("int"))
  }

  /** A numeric column's histogram, its bin counts over the rows a keep-flag
    * holds for, and its count of values beyond the Tukey fences.
    */
  final case class BinnedColumn(histogram: Histogram, kept: Array[Long], outliers: Long) {
    /** Before (every row) vs. after (the kept rows), for plot_missing. */
    def impact: ImpactHistogram = ImpactHistogram(histogram.column, histogram.edges, histogram.counts, kept)
  }

  def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int): Map[String, BinnedColumn] =
    histograms(df, stats, bins, lit(true))

  /** Histogram, rows kept and outlier count of every listed numeric column,
    * one `posexplode → groupBy(pos, bin)` action. Bins and Tukey fences come
    * from each column's pass-1 stats (the precompute stage); binning is the
    * same for kept and dropped rows, so the two distributions compare.
    */
  def histograms(df: DataFrame, stats: Seq[NumericStats], bins: Int,
                 keep: Column): Map[String, BinnedColumn] = {
    if (stats.isEmpty) return Map.empty
    val columnBins = stats.map(s => Bins.of(s.min, s.max, bins))
    val fences = stats.map(s => LocalStage.fences(s.q1, s.q3))
    val value = col("value")
    val byPos = df.select(posexplode(array(stats.map(s => cleanNum(s.name)): _*)).as(Seq("pos", "value")),
        keep.as("keep"))
      .where(value.isNotNull)
      .groupBy(col("pos"),
        Bins.index(value, atPos(columnBins.map(_.lo)), atPos(columnBins.map(_.width)), bins).as("bin"))
      .agg(count(lit(1)), count(when(col("keep"), 1)),
        count(when(value < atPos(fences.map(_._1)) || value > atPos(fences.map(_._2)), 1)))
      .collect()
      .toSeq.groupMap(_.getInt(0))(r => (r.getInt(1), r.getLong(2), r.getLong(3), r.getLong(4)))
    stats.zip(columnBins).zipWithIndex.map { case ((s, b), p) =>
      val cells = byPos.getOrElse(p, Nil)
      s.name -> BinnedColumn(Histogram(s.name, b.edges, b.counts(cells.map(c => (c._1, c._2)))),
        b.counts(cells.map(c => (c._1, c._3))), cells.map(_._4).sum)
    }.toMap
  }

  // ---------------------------------------------------------------------
  // Frequencies: ALL categorical columns in one job.
  // ---------------------------------------------------------------------

  /** A categorical column's statistics and its most frequent values, each
    * with its count over every row and over the rows a keep-flag holds for.
    */
  final case class CountedColumn(stats: CategoricalStats, top: Seq[(String, Long, Long)]) {
    /** The bar chart: the top values over every row, beside the column's totals. */
    def frequencies: CategoryFrequencies =
      CategoryFrequencies(stats.name, top.map(t => (t._1, t._2)), stats.distinct, stats.count)
  }

  def frequencies(df: DataFrame, cols: Seq[String], topK: Int): Map[String, CountedColumn] =
    frequencies(df, cols, topK, lit(true))

  /** Statistics and `topK` most frequent values (ties by value) of every
    * listed categorical column, one action, none when no column is listed.
    * One `posexplode → groupBy(pos, value)` counts every value, null
    * included; window aggregates over each column's counts then give its
    * count (Σ non-null counts), missing (the null value's count), distinct
    * (non-null values) and string lengths (min, max, Σ length·count).
    * Only each column's first `topK` rows reach the driver, the null value
    * ranked last; `topK` is at least 1, so a column with rows sends one.
    */
  def frequencies(df: DataFrame, cols: Seq[String], topK: Int,
                  keep: Column): Map[String, CountedColumn] = {
    if (cols.isEmpty) return Map.empty
    val value = col("value"); val n = col("count"); val len = length(value)
    val ranked = Window.partitionBy(col("pos")).orderBy(value.isNull, n.desc, value)
    // A frame over the whole column: Spark cuts a rank-filtered window's
    // input to its first rows only when every function of the window is a
    // running one, so these aggregates see every value of the column.
    val column = ranked.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    val byPos = df.select(posexplode(array(cols.map(c => colRef(c).cast(StringType)): _*)).as(Seq("pos", "value")),
        keep.as("keep"))
      .groupBy(col("pos"), value)
      .agg(count(lit(1)).as("count"), count(when(col("keep"), 1)).as("kept"))
      .select(col("pos"), value, n, col("kept"),
        sum(when(value.isNotNull, n)).over(column), sum(when(value.isNull, n)).over(column),
        count(value).over(column), min(len).over(column), max(len).over(column),
        sum(len * n).over(column), row_number().over(ranked).as("rn"))
      .where(col("rn") <= topK)
      .collect()
      .toSeq.groupBy(_.getInt(0))
    cols.zipWithIndex.map { case (c, p) =>
      c -> (byPos.get(p) match {
        case Some(rows) =>
          val r = rows.head
          val nonNull = getLong(r, 4)
          // equals avg(length(value)) bit for bit: both sum integer lengths exactly
          CountedColumn(CategoricalStats(c, nonNull, getLong(r, 5), getLong(r, 6), getLong(r, 7), getLong(r, 8),
              if (nonNull == 0) Double.NaN else getLong(r, 9).toDouble / nonNull),
            rows.filterNot(_.isNullAt(1)).map(r => (r.getString(1), r.getLong(2), r.getLong(3)))
              .sortBy(t => (-t._2, t._1)))
        case None => CountedColumn(CategoricalStats(c, 0, 0, 0, 0, 0, Double.NaN), Nil)
      })
    }.toMap
  }

  /** Word frequencies of one text column (univariate categorical task). */
  def wordFrequencies(df: DataFrame, c: String, topK: Int): WordFrequencies = {
    val words = df
      .select(explode(split(lower(colRef(c).cast(StringType)), "[^a-z0-9]+")).as("word"))
      .where(length(col("word")) > 0)
      .rollup("word").agg(count(lit(1)).as("count"), grouping_id().as("total"))
    // single action: the rollup's grand-total row (grouping id 1) sorts
    // first, then the topK words; a column with no words has no total row
    val (total, top) = words.orderBy(col("total").desc, col("count").desc, col("word"))
      .limit(topK + 1).collect().toSeq.partition(_.getLong(2) == 1L)
    WordFrequencies(c, top.take(topK).map(r => (r.getString(0), r.getLong(1))),
      total.headOption.fold(0L)(_.getLong(1)))
  }

  /** Sufficient statistics of (x, y) over the rows where both are present,
    * and whether each side varies there, one eight-expression agg. Feeds
    * the regression line and the exact Pearson r of a pair.
    */
  def pairMoments(df: DataFrame, x: String, y: String): PairMoments = {
    val xc = cleanNum(x); val yc = cleanNum(y)
    val r = df.where(xc.isNotNull && yc.isNotNull)
      .agg(count(lit(1)), sum(xc), sum(yc), sum(xc * xc), sum(yc * yc), sum(xc * yc),
        min(xc) < max(xc), min(yc) < max(yc))
      .head()
    def varies(i: Int): Boolean = !r.isNullAt(i) && r.getBoolean(i)
    PairMoments(getLong(r, 0), zeroIfNaN(getDouble(r, 1)), zeroIfNaN(getDouble(r, 2)),
      zeroIfNaN(getDouble(r, 3)), zeroIfNaN(getDouble(r, 4)), zeroIfNaN(getDouble(r, 5)),
      varies(6), varies(7))
  }

  private def zeroIfNaN(d: Double): Double = if (d.isNaN) 0.0 else d

  /** Numeric columns collected to the driver (local Kendall stage), sampled
    * down to ~`maxRows` rows when the table is larger. Returns column-major
    * arrays aligned with `cols`; nulls arrive as NaN.
    */
  private[repro] def collectNumericMatrix(df: DataFrame, cols: Seq[String], totalRows: Long,
                                          maxRows: Long): Array[Array[Double]] = {
    val proj = df.select(cols.map(c => coalesce(cleanNum(c), lit(Double.NaN))): _*)
    val sampled =
      if (totalRows > maxRows && totalRows > 0)
        proj.sample(withReplacement = false, maxRows.toDouble / totalRows, SampleSeed)
      else proj
    val rows = sampled.collect()
    val out = Array.fill(cols.size)(new Array[Double](rows.length))
    var r = 0
    while (r < rows.length) {
      var c = 0
      while (c < cols.size) { out(c)(r) = rows(r).getDouble(c); c += 1 }
      r += 1
    }
    out
  }

  /** Every method's coefficient of each listed pair of `cols`: one sampled
    * collect of the numeric matrix feeds all of them, computed locally; no
    * job when there is no pair or no method.
    */
  def correlations(df: DataFrame, cols: Seq[String], pairs: Seq[(Int, Int)], rows: Long,
                   methods: Seq[String], maxRows: Long): Map[String, Map[(String, String), Double]] =
    if (pairs.isEmpty || methods.isEmpty) methods.map(_ -> Map.empty[(String, String), Double]).toMap
    else LocalStage.coefficients(cols, collectNumericMatrix(df, cols, rows, maxRows), methods, pairs)

  // ---------------------------------------------------------------------
  // Missing-value reductions.
  // ---------------------------------------------------------------------

  /** Missing counts of `cols` in two jobs, whatever the width: rows per
    * partition (partition = id >> 33 of `monotonically_increasing_id`), then
    * the row count of every (spectrum bucket, missing pattern) from one
    * `groupBy(bucket, ⌈m/64⌉ mask words).count()`; bit i of a pattern's mask
    * words is set where `cols(i)` is missing. A row's bucket is
    * `ntile(nBuckets)` of its global index offset(partition) + (id & (2³³ − 1)):
    * the first n mod b buckets hold ⌊n/b⌋ + 1 rows. Row order follows the
    * partition order, with no global window moving every row to one partition.
    */
  def missing(df: DataFrame, cols: Seq[String], nBuckets: Int): Missing.MissingCounts = {
    val words = cols.zipWithIndex.grouped(64).map(_.map { case (c, i) =>
      when(isMissing(df, c), lit(1L << (i & 63))).otherwise(lit(0L))
    }.reduce(_ bitwiseOR _)).toSeq
    val wordCols = words.indices.map(w => s"w$w")
    // The id is stateful: project it once and derive everything from that
    // column, or each reference would draw a new id.
    val withId = df.select(monotonically_increasing_id().as("id") +:
      words.zip(wordCols).map { case (e, n) => e.as(n) }: _*)
    val id = col("id")
    val partition = shiftright(id, 33).cast("int")

    val perPartition = withId.groupBy(partition).count().collect()
      .map(row => row.getInt(0) -> row.getLong(1)).toMap
    val offsets = (0 to perPartition.keys.maxOption.getOrElse(0))
      .scanLeft(0L)((acc, p) => acc + perPartition.getOrElse(p, 0L))
    val n = offsets.last
    val (q, r) = (n / nBuckets, n % nBuckets)
    val inLarger = r * (q + 1) // rows in the r buckets of q + 1 rows
    def div(a: Column, d: Long): Column = call_function("div", a, lit(d))
    val g = coalesce(try_element_at(typedlit(offsets.init), partition + 1), lit(0L)) +
      id.bitwiseAND(lit((1L << 33) - 1))
    val bucket = when(g < inLarger, div(g, q + 1))
      .otherwise(lit(r) + div(g - inLarger, math.max(q, 1L)))
    val clamped = least(lit(nBuckets - 1L), greatest(lit(0L), bucket)).cast("int")

    // (bucket, columns missing in the pattern, rows)
    val patterns = withId.groupBy(clamped +: wordCols.map(col): _*).count().collect().toSeq.map { row =>
      (row.getInt(0), cols.indices.filter(i => (row.getLong(1 + (i >>> 6)) >>> (i & 63) & 1L) != 0),
        row.getLong(words.size + 1))
    }
    val both = Array.ofDim[Long](cols.size, cols.size)
    for ((_, set, rows) <- patterns; i <- set; j <- set) both(i)(j) += rows
    // missing fraction per column in each non-empty bucket, in row order
    val byBucket = patterns.groupBy(_._1).toSeq.sortBy(_._1).map(_._2)
    val sizes = byBucket.map(_.map(_._3).sum)
    val starts = sizes.scanLeft(0L)(_ + _)
    val fractions = byBucket.zip(sizes).map { case (grp, size) =>
      val missingRows = new Array[Long](cols.size)
      for ((_, set, rows) <- grp; i <- set) missingRows(i) += rows
      missingRows.map(_.toDouble / size)
    }.toArray
    Missing.MissingCounts(n, both,
      MissingSpectrum(cols, sizes.indices.map(b => (starts(b), starts(b + 1) - 1)), fractions))
  }

  // ---------------------------------------------------------------------
  // Bivariate reductions.
  // ---------------------------------------------------------------------

  /** 2-D density grid (hexbin substitute) of every (x, y) pair over the
    * pair's complete rows, one `posexplode(pair bins) → groupBy(pos, xb, yb)`
    * action. Bins come from each column's pass-1 min and max.
    */
  def grids(df: DataFrame, pairs: Seq[(NumericStats, NumericStats)],
            xBins: Int, yBins: Int): Seq[Grid2D] = {
    if (pairs.isEmpty) return Nil
    val bins = pairs.map { case (a, b) => (Bins.of(a.min, a.max, xBins), Bins.of(b.min, b.max, yBins)) }
    val cells = pairs.zip(bins).map { case ((a, b), (xb, yb)) =>
      val x = cleanNum(a.name); val y = cleanNum(b.name)
      // null unless both are present, so the pair counts only its complete rows
      when(x.isNotNull && y.isNotNull, struct(xb.index(x).as("xb"), yb.index(y).as("yb")))
    }
    val byPos = df.select(posexplode(array(cells: _*)).as(Seq("pos", "cell")))
      .where(col("cell").isNotNull)
      .groupBy(col("pos"), col("cell.xb"), col("cell.yb"))
      .count().collect()
      .toSeq.groupMap(_.getInt(0))(r => (r.getInt(1), r.getInt(2), r.getLong(3)))
    pairs.zip(bins).zipWithIndex.map { case (((a, b), (xb, yb)), p) =>
      val byX = byPos.getOrElse(p, Nil).groupMap(_._1)(c => (c._2, c._3))
      Grid2D(a.name, b.name, xb.edges, yb.edges, Array.tabulate(xBins)(i => yb.counts(byX.getOrElse(i, Nil))))
    }
  }

  /** Count and [min, q1, median, q3, max] of `y` in each group of `key`
    * over the rows where both are present, for the `limit` most frequent
    * groups (ties by key), one action: the binned box plot (key = x bin)
    * and the categorical box plot (key = category).
    */
  def groupedFiveNumbers[K](df: DataFrame, key: Column, y: String,
                            limit: Int): Seq[(K, Long, Array[Double])] =
    df.select(key.as("k"), cleanNum(y).as("y"))
      .where(col("k").isNotNull && col("y").isNotNull)
      .groupBy(col("k"))
      .agg(count(lit(1)).as("cnt"), fiveNumbers(col("y")))
      .orderBy(col("cnt").desc, col("k"))
      .limit(limit)
      .collect()
      .map(r => (r.getAs[K](0), r.getLong(1), r.getSeq[Double](2).toArray)).toSeq

  /** Histogram of a numeric column within each of the given categories
    * (multi-line chart), one action, every category binned by `bins`.
    */
  def groupedHistograms(df: DataFrame, cat: String, num: String, categories: Seq[String],
                        bins: Bins): Map[String, Array[Long]] = {
    if (categories.isEmpty) return Map.empty
    val yc = cleanNum(num)
    val catStr = colRef(cat).cast(StringType)
    val byCat = df.where(catStr.isin(categories: _*) && yc.isNotNull)
      .groupBy(catStr.as("g"), bins.index(yc).as("bin")).count().collect()
      .toSeq.groupMap(_.getString(0))(r => (r.getInt(1), r.getLong(2)))
    categories.map(c => c -> bins.counts(byCat.getOrElse(c, Nil))).toMap
  }

  /** Cells a cross tabulation keeps, most frequent first. */
  private val MaxContingencyCells = 100000

  /** Cross tabulation of two categorical columns, one action, capped at the
    * `MaxContingencyCells` most frequent cells.
    */
  def contingency(df: DataFrame, c1: String, c2: String): Seq[(String, String, Long)] = {
    df.where(colRef(c1).isNotNull && colRef(c2).isNotNull)
      .groupBy(colRef(c1).cast(StringType).as("a"), colRef(c2).cast(StringType).as("b"))
      .count()
      .orderBy(col("count").desc, col("a"), col("b"))
      .limit(MaxContingencyCells)
      .collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2))).toSeq
  }

  /** A seeded random sample of min(`n`, complete rows) (x, y) points for a
    * scatter plot, one take-ordered action.
    */
  def scatterSample(df: DataFrame, x: String, y: String, n: Int): Seq[(Double, Double)] = {
    val xc = cleanNum(x); val yc = cleanNum(y)
    df.where(xc.isNotNull && yc.isNotNull)
      .select(xc.as("x"), yc.as("y"))
      .orderBy(rand(SampleSeed))
      .limit(n)
      .collect()
      .map(r => (r.getDouble(0), r.getDouble(1))).toSeq
  }
}
