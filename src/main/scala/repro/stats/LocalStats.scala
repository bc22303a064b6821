package repro.stats

/** Local-stage statistics (the paper's "Pandas computation" stage).
  *
  * Everything here operates on data already reduced/collected by the
  * distributed stage — small arrays, pair moments, contingency counts —
  * so plain Scala is faster than scheduling distributed work (the paper's
  * "Dask is slow on tiny data" observation, Section 5.2).
  */
object LocalStats {

  /** Sufficient statistics of one column pair over pairwise-complete rows.
    * `xVaries`/`yVaries` say whether the column takes two distinct values
    * there: from raw sums, n·Σx² − (Σx)² of a constant column keeps
    * rounding residue, so its variance cannot tell.
    */
  final case class PairMoments(n: Long, sx: Double, sy: Double,
                               sxx: Double, syy: Double, sxy: Double,
                               xVaries: Boolean = true, yVaries: Boolean = true) {
    /** Pearson correlation; NaN when undefined (n<2 or zero variance). */
    def pearson: Double = {
      if (n < 2 || !xVaries || !yVaries) return Double.NaN
      val cov = n * sxy - sx * sy
      val vx  = n * sxx - sx * sx
      val vy  = n * syy - sy * sy
      if (vx <= 0 || vy <= 0) Double.NaN else cov / math.sqrt(vx) / math.sqrt(vy)
    }

    /** Least-squares line y = slope * x + intercept; NaN when undefined. */
    def regression: (Double, Double) = {
      if (n < 2 || !xVaries) return (Double.NaN, Double.NaN)
      val vx = n * sxx - sx * sx
      if (vx <= 0) return (Double.NaN, Double.NaN)
      val slope = (n * sxy - sx * sy) / vx
      (slope, (sy - slope * sx) / n)
    }
  }

  /** Pearson's r over the rows where neither `x` nor `y` is NaN
    * (pairwise-complete deletion), summed in row order; NaN when undefined.
    * A side varies when one of its values `!=` the first (so -0.0 ties
    * with 0.0, as in the rank kernels).
    */
  def pearsonArrays(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "pearson: length mismatch")
    var n = 0L; var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var x0 = 0.0; var y0 = 0.0; var xVaries = false; var yVaries = false
    var i = 0
    while (i < x.length) {
      val a = x(i); val b = y(i)
      if (!a.isNaN && !b.isNaN) {
        if (n == 0) { x0 = a; y0 = b }
        else { xVaries ||= a != x0; yVaries ||= b != y0 }
        n += 1; sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      }
      i += 1
    }
    PairMoments(n, sx, sy, sxx, syy, sxy, xVaries, yVaries).pearson
  }

  /** One column of the collected numeric matrix (NaN = missing), sorted
    * once for the rank coefficients of every pair it is in.
    *
    * `order` lists the non-missing rows by `Double.compare`; `group(r)` is
    * row r's dense tie-group id in that order, -1 where missing. Ties are
    * `==` (so -0.0 and 0.0, adjacent in the sort, share a group), the rule
    * of pandas and scipy. `ranks(r)` is the row's 1-based average rank among
    * the non-missing rows, NaN where missing.
    */
  final class SortedColumn(val values: Array[Double]) {
    val order: Array[Int] = {
      val rows = (0 until values.length).filter(r => !values(r).isNaN).toArray
      mergeSort(rows, (a, b) => java.lang.Double.compare(values(a), values(b)))
      rows
    }
    val group: Array[Int] = Array.fill(values.length)(-1)
    val groups: Int = {
      var g = -1; var k = 0
      while (k < order.length) {
        if (k == 0 || values(order(k)) != values(order(k - 1))) g += 1
        group(order(k)) = g
        k += 1
      }
      g + 1
    }
    val ranks: Array[Double] = ranksAmong(values)
    def hasMissing: Boolean = order.length < values.length

    /** Average ranks among the rows where `partner` is not NaN, from one
      * walk of `order` that skips the other rows and re-averages the ties;
      * NaN on the skipped and missing rows.
      */
    def ranksAmong(partner: Array[Double]): Array[Double] = {
      val out = Array.fill(values.length)(Double.NaN)
      var i = 0; var p = 0 // p: rows kept before this tie group
      while (i < order.length) {
        var j = i; var kept = 0
        while (j < order.length && group(order(j)) == group(order(i))) {
          if (!partner(order(j)).isNaN) kept += 1
          j += 1
        }
        val r = (p + (p + kept - 1) + 2) / 2.0 // mean of 1-based ranks p+1 .. p+kept
        while (i < j) { if (!partner(order(i)).isNaN) out(order(i)) = r; i += 1 }
        p += kept
      }
      out
    }
  }

  /** Spearman's rho over the complete rows of a pair: Pearson's r of the
    * average ranks re-taken among those rows (pandas' pairwise deletion). A
    * column's full ranks serve as they are when its partner misses no row.
    */
  def spearman(x: SortedColumn, y: SortedColumn): Double =
    pearsonArrays(if (y.hasMissing) x.ranksAmong(y.values) else x.ranks,
      if (x.hasMissing) y.ranksAmong(x.values) else y.ranks)

  /** Kendall's tau-b over the complete rows of a pair, by Knight's
    * O(n log n) method (Knight, JASA 1966) with tie handling.
    *
    * tau-b = (P - Q) / sqrt((n0 - n1)(n0 - n2)) where n0 = n(n-1)/2, n1/n2
    * are tie-pair counts in x/y, and P - Q = n0 - n1 - n2 + n3 - 2*swaps
    * (n3 = joint-tie pairs, swaps = merge-sort exchanges of y's tie groups
    * in (x, y) order). The complete rows are taken in y's sorted order and
    * put in (x, y) order by a stable counting sort on x's tie group, so
    * neither column is sorted again.
    */
  def kendallTauB(x: SortedColumn, y: SortedColumn): Double = {
    val complete = new Array[Int](y.order.length)
    var n = 0; var k = 0
    while (k < y.order.length) {
      if (x.group(y.order(k)) >= 0) { complete(n) = y.order(k); n += 1 }
      k += 1
    }
    if (n < 2) return Double.NaN
    def tiePairs(t: Long): Long = t * (t - 1) / 2
    val start = new Array[Int](x.groups + 1) // rows per x group, then each group's first slot
    var n2 = 0L; var run = 0L
    k = 0
    while (k < n) {
      start(x.group(complete(k)) + 1) += 1
      run = if (k > 0 && y.group(complete(k)) == y.group(complete(k - 1))) run + 1 else 1
      n2 += run - 1 // a row ties with every row before it in its run
      k += 1
    }
    var n1 = 0L; var g = 0
    while (g < x.groups) { n1 += tiePairs(start(g + 1)); start(g + 1) += start(g); g += 1 }
    val xs = new Array[Int](n); val ys = new Array[Int](n)
    k = 0
    while (k < n) {
      val r = complete(k); val slot = start(x.group(r))
      xs(slot) = x.group(r); ys(slot) = y.group(r); start(x.group(r)) += 1
      k += 1
    }
    var n3 = 0L; run = 0L
    k = 0
    while (k < n) {
      run = if (k > 0 && xs(k) == xs(k - 1) && ys(k) == ys(k - 1)) run + 1 else 1
      n3 += run - 1 // likewise for a run of equal (x, y)
      k += 1
    }
    val swaps = mergeSort(ys, Integer.compare)
    val n0 = tiePairs(n)
    val pq = n0 - n1 - n2 + n3 - 2 * swaps
    val denom = math.sqrt((n0 - n1).toDouble) * math.sqrt((n0 - n2).toDouble)
    if (denom == 0) Double.NaN else pq / denom
  }

  /** Stable merge sort of `a` by `cmp`; returns the exchanges, the pairs an
    * element overtakes (i < j with cmp(a(i), a(j)) > 0).
    */
  private def mergeSort(a: Array[Int], cmp: (Int, Int) => Int): Long = {
    val buf = new Array[Int](a.length)
    def sort(lo: Int, hi: Int): Long = if (hi - lo < 2) 0L else {
      val mid = (lo + hi) >>> 1
      var swaps = sort(lo, mid) + sort(mid, hi)
      var i = lo; var j = mid; var k = lo
      while (i < mid && j < hi) {
        if (cmp(a(i), a(j)) <= 0) { buf(k) = a(i); i += 1 }
        else { buf(k) = a(j); j += 1; swaps += mid - i }
        k += 1
      }
      System.arraycopy(a, i, buf, k, mid - i)
      System.arraycopy(a, j, buf, k + mid - i, hi - j)
      System.arraycopy(buf, lo, a, lo, hi - lo)
      swaps
    }
    sort(0, a.length)
  }

  /** Inverse standard-normal CDF (Acklam's rational approximation,
    * |relative error| < 1.15e-9). Used for normal Q-Q plots.
    */
  def normalPpf(p: Double): Double = {
    require(p > 0 && p < 1, s"normalPpf: p must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02,
      -2.759285104469687e+02, 1.383577518672690e+02,
      -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02,
      -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01,
      -2.400758277161838e+00, -2.549732539343734e+00,
      4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01,
      2.445134137142996e+00, 3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5; val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** Shannon entropy of a count distribution, normalized to [0, 1]. */
  def normalizedEntropy(counts: Seq[Long]): Double = {
    val pos = counts.filter(_ > 0)
    if (pos.size <= 1) return 0.0
    val total = pos.sum.toDouble
    val h = -pos.map { c => val p = c / total; p * math.log(p) }.sum
    h / math.log(pos.size.toDouble)
  }

  /** L1 distance between two count distributions after normalization. */
  def l1Distance(a: Seq[Long], b: Seq[Long]): Double = {
    require(a.size == b.size, "l1Distance: length mismatch")
    val sa = math.max(1L, a.sum).toDouble
    val sb = math.max(1L, b.sum).toDouble
    a.zip(b).map { case (x, y) => math.abs(x / sa - y / sb) }.sum
  }
}
