package repro.stats

/** Local-stage statistics (the paper's "Pandas computation" stage).
  *
  * Everything here operates on data already reduced/collected by the
  * distributed stage — small arrays, pair moments, contingency counts —
  * so plain Scala is faster than scheduling distributed work (the paper's
  * "Dask is slow on tiny data" observation, Section 5.2).
  */
object LocalStats {

  /** Sufficient statistics of one column pair over pairwise-complete rows. */
  final case class PairMoments(n: Long, sx: Double, sy: Double,
                               sxx: Double, syy: Double, sxy: Double) {
    /** Pearson correlation; NaN when undefined (n<2 or zero variance). */
    def pearson: Double = {
      if (n < 2) return Double.NaN
      val cov = n * sxy - sx * sy
      val vx  = n * sxx - sx * sx
      val vy  = n * syy - sy * sy
      if (vx <= 0 || vy <= 0) Double.NaN else cov / math.sqrt(vx) / math.sqrt(vy)
    }

    /** Least-squares line y = slope * x + intercept; NaN when undefined. */
    def regression: (Double, Double) = {
      if (n < 2) return (Double.NaN, Double.NaN)
      val vx = n * sxx - sx * sx
      if (vx <= 0) return (Double.NaN, Double.NaN)
      val slope = (n * sxy - sx * sy) / vx
      (slope, (sy - slope * sx) / n)
    }
  }

  def pearsonArrays(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "pearson: length mismatch")
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < x.length) {
      val a = x(i); val b = y(i)
      sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      i += 1
    }
    PairMoments(x.length.toLong, sx, sy, sxx, syy, sxy).pearson
  }

  /** Average ranks (1-based); ties share the mean of their rank range.
    * Primitive-array implementation — the local correlation stage runs this
    * for every column pair, so boxing would dominate.
    */
  def averageRanksArray(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val idx = Array.range(0, n)
    // sort indices by value without boxing
    val sorted = idx.sortBy(xs) // sortBy on Array[Int] by Double key
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && xs(sorted(j + 1)) == xs(sorted(i))) j += 1
      val r = (i + j + 2) / 2.0 // mean of 1-based ranks i+1 .. j+1
      var k = i
      while (k <= j) { out(sorted(k)) = r; k += 1 }
      i = j + 1
    }
    out
  }

  def spearmanArrays(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "spearman: length mismatch")
    val rx = averageRanksArray(x); val ry = averageRanksArray(y)
    val n = x.length.toLong
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < x.length) {
      val a = rx(i); val b = ry(i)
      sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      i += 1
    }
    PairMoments(n, sx, sy, sxx, syy, sxy).pearson
  }

  /** Kendall's tau-b via Knight's O(n log n) algorithm, with tie handling.
    *
    * tau-b = (P - Q) / sqrt((n0 - n1)(n0 - n2)) where n0 = n(n-1)/2,
    * n1/n2 are tie-pair counts in x/y, and P - Q = n0 - n1 - n2 + n3 - 2*swaps
    * (n3 = joint-tie pairs, swaps = merge-sort exchange count of y after
    * sorting by (x, y)).
    */
  def kendallTauB(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "kendall: length mismatch")
    val n = x.length
    if (n < 2) return Double.NaN
    val order = (0 until n).sortBy(i => (x(i), y(i))).toArray

    def tiePairs(sorted: Array[Double]): Long = {
      var total = 0L; var i = 0
      while (i < sorted.length) {
        var j = i
        while (j + 1 < sorted.length && sorted(j + 1) == sorted(i)) j += 1
        val t = (j - i + 1).toLong
        total += t * (t - 1) / 2
        i = j + 1
      }
      total
    }

    val n0 = n.toLong * (n - 1) / 2
    val n1 = tiePairs(x.sorted)
    val n2 = tiePairs(y.sorted)
    // joint ties: runs of identical (x, y) in the sorted order
    var n3 = 0L
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n &&
             x(order(j + 1)) == x(order(i)) && y(order(j + 1)) == y(order(i))) j += 1
      val t = (j - i + 1).toLong
      n3 += t * (t - 1) / 2
      i = j + 1
    }

    // merge sort on y (in x-then-y order), counting exchanges
    val ys = order.map(y)
    var swaps = 0L
    val buf = new Array[Double](n)
    def merge(lo: Int, mid: Int, hi: Int): Unit = {
      var a = lo; var b = mid; var k = lo
      while (a < mid && b < hi) {
        if (ys(a) <= ys(b)) { buf(k) = ys(a); a += 1 }
        else { buf(k) = ys(b); b += 1; swaps += (mid - a) }
        k += 1
      }
      while (a < mid) { buf(k) = ys(a); a += 1; k += 1 }
      while (b < hi)  { buf(k) = ys(b); b += 1; k += 1 }
      System.arraycopy(buf, lo, ys, lo, hi - lo)
    }
    def sort(lo: Int, hi: Int): Unit = {
      if (hi - lo < 2) return
      val mid = (lo + hi) >>> 1
      sort(lo, mid); sort(mid, hi); merge(lo, mid, hi)
    }
    sort(0, n)

    val pq = n0 - n1 - n2 + n3 - 2 * swaps
    val denom = math.sqrt((n0 - n1).toDouble) * math.sqrt((n0 - n2).toDouble)
    if (denom == 0) Double.NaN else pq / denom
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
