package repro.stats

/** Plain reference implementations that tests compare the program's
  * statistics against.
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

  /** Brute-force tau-b. */
  def kendallTauBBrute(x: Array[Double], y: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return Double.NaN
    var p = 0L; var q = 0L; var tx = 0L; var ty = 0L
    for (i <- 0 until n; j <- i + 1 until n) {
      val dx = java.lang.Double.compare(x(i), x(j))
      val dy = java.lang.Double.compare(y(i), y(j))
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
