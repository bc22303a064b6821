package repro.stats

/** Plain reference implementations that tests compare the program's
  * statistics against, among them the per-pair re-rank kernels that the
  * sort-once `LocalStage.coefficients` replaced.
  */
object References {

  def mean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** Sample variance (n-1 denominator), matching Spark's var_samp. */
  def variance(xs: Seq[Double]): Double = {
    if (xs.size < 2) return Double.NaN
    val m = mean(xs)
    xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
  }

  def stddev(xs: Seq[Double]): Double = math.sqrt(variance(xs))

  /** Population skewness m3 / m2^1.5, matching Spark's skewness(). */
  def skewness(xs: Seq[Double]): Double = {
    if (xs.size < 2) return Double.NaN
    val m = mean(xs)
    val n = xs.size.toDouble
    val m2 = xs.map(x => math.pow(x - m, 2)).sum / n
    val m3 = xs.map(x => math.pow(x - m, 3)).sum / n
    if (m2 <= 0) Double.NaN else m3 / math.pow(m2, 1.5)
  }

  /** Average ranks (1-based); ties (`==`) share the mean of their rank range. */
  def averageRanksArray(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val sorted = Array.range(0, n).sortBy(xs)
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

  /** Spearman's rho of complete arrays, re-ranked per call. */
  def spearmanArrays(x: Array[Double], y: Array[Double]): Double =
    LocalStats.pearsonArrays(averageRanksArray(x), averageRanksArray(y))

  /** Kendall's tau-b of complete arrays by Knight's method, re-sorting per
    * call. Ties are `==`: adding 0.0 turns -0.0 into 0.0 before the sort,
    * which would otherwise order -0.0 below 0.0 while counting them tied.
    */
  def kendallTauB(x0: Array[Double], y0: Array[Double]): Double = {
    require(x0.length == y0.length, "kendall: length mismatch")
    val x = x0.map(_ + 0.0); val y = y0.map(_ + 0.0)
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

  /** Brute-force tau-b over all pairs; ties are `==`. */
  def kendallTauBBrute(x: Array[Double], y: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return Double.NaN
    def sign(a: Double, b: Double): Int = if (a == b) 0 else if (a < b) -1 else 1
    var p = 0L; var q = 0L; var tx = 0L; var ty = 0L
    for (i <- 0 until n; j <- i + 1 until n) {
      val dx = sign(x(i), x(j))
      val dy = sign(y(i), y(j))
      if (dx == 0 && dy == 0) () // joint tie: counts in neither
      else if (dx == 0) tx += 1
      else if (dy == 0) ty += 1
      else if (dx * dy > 0) p += 1
      else q += 1
    }
    val denom = math.sqrt((p + q + tx).toDouble) * math.sqrt((p + q + ty).toDouble)
    if (denom == 0) Double.NaN else (p - q) / denom
  }

  /** Standard normal CDF (Abramowitz–Stegun via erf). */
  def normalCdf(x: Double): Double = 0.5 * (1 + erf(x / math.sqrt(2.0)))

  private def erf(z: Double): Double = {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(z))
    val y = 1 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t -
      0.284496736) * t + 0.254829592) * t * math.exp(-z * z)
    if (z >= 0) y else -y
  }
}
