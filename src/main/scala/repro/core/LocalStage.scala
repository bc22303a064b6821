package repro.core

import repro.core.Intermediates._
import repro.stats.{Kde, LocalStats}
import repro.stats.LocalStats.SortedColumn

/** The local stage of the Compute module (Section 5.2's "Pandas
  * computation"): plain Scala over the small results the distributed stage
  * collected. Scheduling distributed work for these would cost more than
  * the computation itself — the paper's "Dask is slow on tiny data" point.
  */
object LocalStage {

  /** Assemble a symmetric correlation matrix from per-pair coefficients.
    * The diagonal is 1 where the column has variance, NaN otherwise.
    */
  def correlationMatrix(method: String, cols: Seq[String],
                        coeff: Map[(String, String), Double],
                        hasVariance: String => Boolean): CorrelationMatrix = {
    val m = cols.size
    val values = Array.ofDim[Double](m, m)
    for (i <- 0 until m; j <- 0 until m) {
      values(i)(j) =
        if (i == j) { if (hasVariance(cols(i))) 1.0 else Double.NaN }
        else coeff.getOrElse((cols(math.min(i, j)), cols(math.max(i, j))), Double.NaN)
    }
    CorrelationMatrix(method, cols, values)
  }

  /** Every requested coefficient of each listed column pair (indices into
    * `cols`) of the collected numeric matrix (column-major, NaN = missing),
    * keyed method → pair, over the pair's complete rows (pandas' pairwise
    * deletion).
    *
    * Each column in a pair is sorted once per call (`SortedColumn`), not
    * once per pair. Spearman reuses a column's full ranks when its partner
    * misses no row and otherwise re-walks its sorted order, skipping the
    * partner's missing rows; Kendall counts discordant pairs with Knight's
    * merge sort over tie-group ids. Ranks are exact halves and the counts
    * integers, so the results equal a per-pair re-sort bit for bit. The
    * column sorts and then the pairs run as tasks on the global pool.
    */
  def coefficients(cols: Seq[String], matrix: Array[Array[Double]], methods: Seq[String],
                   pairs: Seq[(Int, Int)]): Map[String, Map[(String, String), Double]] = {
    val ranked = if (methods.forall(_ == "pearson")) Nil
      else pairs.flatMap { case (i, j) => Seq(i, j) }.distinct
    val sorted = ranked.zip(Concurrently.local(ranked.map(c => () => new SortedColumn(matrix(c))))).toMap
    val perPair = Concurrently.local(pairs.map { case (i, j) => () =>
      methods.map {
        case "pearson" => LocalStats.pearsonArrays(matrix(i), matrix(j))
        case "spearman" => LocalStats.spearman(sorted(i), sorted(j))
        case "kendall" => LocalStats.kendallTauB(sorted(i), sorted(j))
      }
    })
    val keys = pairs.map { case (i, j) => (cols(i), cols(j)) }
    methods.zipWithIndex.map { case (m, k) => m -> keys.zip(perPair.map(_(k))).toMap }.toMap
  }

  /** Tukey box plot from the quantile grid; `outliers` counted by the histogram job. */
  def boxPlot(stats: NumericStats, outliers: Long): BoxPlot =
    boxFromFiveNumbers(stats.name, Array(stats.min, stats.q1, stats.median, stats.q3, stats.max))
      .copy(outliers = outliers)

  /** Tukey fences (lo, hi) at 1.5·IQR beyond the quartiles: the box plots'
    * whiskers, and the histogram job counts the values beyond them.
    */
  def fences(q1: Double, q3: Double): (Double, Double) = {
    val iqr = q3 - q1
    (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
  }

  /** Box plot assembled from a five-number summary [min q1 med q3 max]:
    * whiskers are the fences clamped to the summary extremes, outlier count
    * not computed (grouped/binned box plots have no outlier pass).
    */
  def boxFromFiveNumbers(name: String, qs: Array[Double]): BoxPlot = {
    require(qs.length == 5, s"five-number summary expected, got ${qs.length}")
    val (lowerFence, upperFence) = fences(qs(1), qs(3))
    BoxPlot(name, qs(0), qs(1), qs(2), qs(3), qs(4),
      lowerWhisker = math.max(qs(0), lowerFence),
      upperWhisker = math.min(qs(4), upperFence),
      outliers = 0L)
  }

  /** KDE curve from the histogram reduction (shared computation: the same
    * histogram feeds the histogram plot, the KDE, and the insights).
    */
  def kdeCurve(stats: NumericStats, hist: Histogram, gridPoints: Int): KdeCurve = {
    val (grid, density) = Kde.fromHistogram(hist.centers, hist.counts,
      stats.min, stats.max, stats.std, gridPoints)
    KdeCurve(stats.name, grid, density)
  }

  /** Normal Q-Q plot from the precomputed quantile grid: sample quantiles at
    * p = 1..99 % vs. mean + std · Φ⁻¹(p).
    */
  def qqPlot(stats: NumericStats, points: Int): QQPlot = {
    if (!stats.hasVariance || stats.percentiles.isEmpty)
      return QQPlot(stats.name, Array.empty, Array.empty)
    val ps = (1 to points).map(_ / 100.0)
    val theoretical = ps.map(p => stats.mean + stats.std * LocalStats.normalPpf(p)).toArray
    QQPlot(stats.name, theoretical, ps.map(stats.quantile).toArray)
  }

  /** Normalized PDF and cumulative CDF of a histogram. */
  def pdfCdf(hist: Array[Long]): (Array[Double], Array[Double]) = {
    val total = math.max(1L, hist.sum).toDouble
    val pdf = hist.map(_ / total)
    val cdf = pdf.scanLeft(0.0)(_ + _).drop(1)
    (pdf, cdf)
  }

  /** Contingency cells → dense table over the top-K categories per axis
    * (by marginal count).
    */
  def contingencyTable(c1: String, c2: String, cells: Seq[(String, String, Long)],
                       topK: Int): ContingencyTable = {
    val rowMarg = cells.groupBy(_._1).map { case (v, g) => v -> g.map(_._3).sum }
    val colMarg = cells.groupBy(_._2).map { case (v, g) => v -> g.map(_._3).sum }
    val rows = rowMarg.toSeq.sortBy(t => (-t._2, t._1)).take(topK).map(_._1)
    val cols = colMarg.toSeq.sortBy(t => (-t._2, t._1)).take(topK).map(_._1)
    val rIdx = rows.zipWithIndex.toMap
    val cIdx = cols.zipWithIndex.toMap
    val counts = Array.ofDim[Long](rows.size, cols.size)
    cells.foreach { case (a, b, n) =>
      (rIdx.get(a), cIdx.get(b)) match {
        case (Some(i), Some(j)) => counts(i)(j) += n
        case _ => ()
      }
    }
    ContingencyTable(c1, c2, rows, cols, counts)
  }
}
