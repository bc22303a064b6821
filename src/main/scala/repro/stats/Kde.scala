package repro.stats

/** Gaussian kernel density estimation over a pre-reduced histogram.
  *
  * The distributed stage reduces a column to (bin centers, counts); the KDE
  * is then a weighted mixture of Gaussians over those centers — no second
  * pass over the data, which is how the compute module shares one reduction
  * across the histogram, the KDE plot, and the insight checks.
  */
object Kde {

  /** Silverman's rule-of-thumb bandwidth. */
  def silvermanBandwidth(std: Double, n: Long): Double = {
    if (n <= 1 || std <= 0 || std.isNaN) return 1.0
    1.06 * std * math.pow(n.toDouble, -0.2)
  }

  /** Evaluate the weighted-Gaussian KDE on `gridPoints` evenly spaced points
    * spanning [min, max]. `centers(i)` carries weight `counts(i)`.
    * Returns (grid, density); density integrates to ~1 over the real line.
    */
  def fromHistogram(centers: Array[Double], counts: Array[Long],
                    min: Double, max: Double, std: Double,
                    gridPoints: Int): (Array[Double], Array[Double]) = {
    val total = counts.sum
    if (total == 0 || centers.isEmpty || gridPoints < 2)
      return (Array.empty, Array.empty)
    val n = total
    val h = silvermanBandwidth(std, n)
    val lo = min - 2 * h
    val hi = max + 2 * h
    val step = (hi - lo) / (gridPoints - 1)
    val grid = Array.tabulate(gridPoints)(i => lo + i * step)
    val norm = 1.0 / (n * h * math.sqrt(2 * math.Pi))
    val density = grid.map { g =>
      var s = 0.0
      var i = 0
      while (i < centers.length) {
        val z = (g - centers(i)) / h
        s += counts(i) * math.exp(-0.5 * z * z)
        i += 1
      }
      s * norm
    }
    (grid, density)
  }
}
