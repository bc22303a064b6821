package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class KdeSpec extends AnyFunSuite {

  test("silverman bandwidth formula") {
    assert(math.abs(Kde.silvermanBandwidth(2.0, 100) - 1.06 * 2.0 * math.pow(100, -0.2)) < 1e-12)
  }
  test("silverman bandwidth degenerate inputs fall back to 1") {
    assert(Kde.silvermanBandwidth(0.0, 100) == 1.0)
    assert(Kde.silvermanBandwidth(Double.NaN, 100) == 1.0)
    assert(Kde.silvermanBandwidth(2.0, 1) == 1.0)
  }

  private def histOf(xs: Seq[Double], bins: Int): (Array[Double], Array[Long], Double, Double) = {
    val mn = xs.min; val mx = xs.max
    val w = (mx - mn) / bins
    val counts = new Array[Long](bins)
    xs.foreach { x =>
      val b = math.min(bins - 1, math.max(0, ((x - mn) / w).toInt)); counts(b) += 1
    }
    (Array.tabulate(bins)(i => mn + (i + 0.5) * w), counts, mn, mx)
  }

  test("KDE of normal data integrates to ~1") {
    val rnd = new Random(1)
    val xs = Seq.fill(5000)(rnd.nextGaussian() * 3 + 10)
    val (centers, counts, mn, mx) = histOf(xs, 50)
    val std = References.stddev(xs)
    val (grid, density) = Kde.fromHistogram(centers, counts, mn, mx, std, 400)
    val step = grid(1) - grid(0)
    val integral = density.sum * step
    assert(math.abs(integral - 1.0) < 0.05, s"integral=$integral")
  }

  test("KDE of normal data peaks near the mean") {
    val rnd = new Random(2)
    val xs = Seq.fill(5000)(rnd.nextGaussian() * 2 + 7)
    val (centers, counts, mn, mx) = histOf(xs, 50)
    val (grid, density) = Kde.fromHistogram(centers, counts, mn, mx, References.stddev(xs), 400)
    val peak = grid(density.indexOf(density.max))
    assert(math.abs(peak - 7.0) < 1.0, s"peak=$peak")
  }

  test("KDE density is nonnegative everywhere") {
    val (centers, counts, mn, mx) = histOf(Seq(1.0, 2, 2, 3, 9), 5)
    val (_, density) = Kde.fromHistogram(centers, counts, mn, mx, 2.0, 100)
    assert(density.forall(_ >= 0.0))
  }

  test("KDE of empty histogram is empty") {
    val (g, d) = Kde.fromHistogram(Array(1.0), Array(0L), 0, 1, 1.0, 100)
    assert(g.isEmpty && d.isEmpty)
  }

  test("KDE grid spans beyond data range (bandwidth margin)") {
    val (centers, counts, mn, mx) = histOf(Seq(0.0, 1, 2, 3, 4, 5), 5)
    val (grid, _) = Kde.fromHistogram(centers, counts, mn, mx, 1.7, 50)
    assert(grid.head < mn && grid.last > mx)
  }
}
