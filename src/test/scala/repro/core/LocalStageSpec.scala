package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.Intermediates._
import repro.stats.{Dendrogram, LocalStats, References}

/** Local-stage assembly (the paper's Pandas-computation analog). */
class LocalStageSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, tol: Double = 1e-9) =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= tol

  test("correlationMatrix: symmetric fill from upper-triangle pairs") {
    val m = LocalStage.correlationMatrix("pearson", Seq("a", "b", "c"),
      Map(("a", "b") -> 0.5, ("a", "c") -> -0.2, ("b", "c") -> 0.9), _ => true)
    assert(m(0, 1) == 0.5 && m(1, 0) == 0.5)
    assert(m(0, 2) == -0.2 && m(2, 0) == -0.2)
    assert(m(0, 0) == 1.0 && m(1, 1) == 1.0)
  }

  test("correlationMatrix: zero-variance diagonal is NaN") {
    val m = LocalStage.correlationMatrix("pearson", Seq("a", "b"),
      Map(("a", "b") -> Double.NaN), c => c == "a")
    assert(m(0, 0) == 1.0 && m(1, 1).isNaN)
  }

  test("coefficients: kendall uses pairwise-complete deletion") {
    val cols = Seq("x", "y")
    val matrix = Array(
      Array(1.0, 2.0, Double.NaN, 4.0),
      Array(1.0, Double.NaN, 3.0, 4.0))
    val k = LocalStage.coefficients(cols, matrix, Seq("kendall"), Seq((0, 1)))("kendall")(("x", "y"))
    // complete rows: (1,1), (4,4) -> perfectly concordant
    assert(approx(k, 1.0))
  }

  test("coefficients: NaN in different rows of both columns re-ranks among complete rows") {
    val matrix = Array(
      Array(3.0, Double.NaN, 1.0, 2.0, 2.0, 5.0, Double.NaN),
      Array(Double.NaN, 4.0, 1.0, 1.0, 3.0, Double.NaN, 2.0))
    val got = LocalStage.coefficients(Seq("x", "y"), matrix, EdaConfig.CorrelationMethods, Seq((0, 1)))
    // complete rows 2, 3 and 4: x = (1, 2, 2), y = (1, 1, 3)
    val (xs, ys) = (Array(1.0, 2.0, 2.0), Array(1.0, 1.0, 3.0))
    assert(got("spearman")(("x", "y")) == References.spearmanArrays(xs, ys))
    assert(got("kendall")(("x", "y")) == References.kendallTauB(xs, ys))
    assert(got("pearson")(("x", "y")) == LocalStats.pearsonArrays(xs, ys))
  }

  /** A column of `n` rows drawn from few levels (heavy ties, -0.0 beside
    * 0.0), or continuous, with its own share of missing rows (maybe none).
    */
  private def randomColumn(rnd: Random, n: Int): Array[Double] = {
    val levels = if (rnd.nextInt(4) == 0) 0 else 1 + rnd.nextInt(6)
    val missing = if (rnd.nextBoolean()) 0.0 else rnd.nextDouble() * 0.5
    Array.fill(n) {
      if (rnd.nextDouble() < missing) Double.NaN
      else if (levels == 0) rnd.nextGaussian()
      else (rnd.nextInt(levels) - levels / 2) match {
        case 0 if rnd.nextBoolean() => -0.0
        case v => v.toDouble
      }
    }
  }

  test("coefficients: equal to the per-pair re-rank reference with == (property)") {
    val cols = Seq("a", "b", "c", "d")
    val pairs = for (i <- cols.indices; j <- i + 1 until cols.size) yield (i, j)
    for (seed <- 0 until 300) {
      val rnd = new Random(seed)
      val n = if (seed < 30) seed % 3 else rnd.nextInt(80)
      val matrix = Array.fill(cols.size)(randomColumn(rnd, n))
      val got = LocalStage.coefficients(cols, matrix, EdaConfig.CorrelationMethods, pairs)
      for ((i, j) <- pairs) {
        val complete = (0 until n).filter(r => !matrix(i)(r).isNaN && !matrix(j)(r).isNaN)
        val xs = complete.map(matrix(i)).toArray; val ys = complete.map(matrix(j)).toArray
        val want = Map(
          "pearson" -> LocalStats.pearsonArrays(xs, ys),
          "spearman" -> (if (xs.length > 1) References.spearmanArrays(xs, ys) else Double.NaN),
          "kendall" -> References.kendallTauB(xs, ys))
        val hint = s"seed $seed pair ($i, $j): x = ${xs.toSeq}, y = ${ys.toSeq}"
        want.foreach { case (m, w) =>
          val g = got(m)((cols(i), cols(j)))
          assert(g == w || (g.isNaN && w.isNaN), s"$m: $g != $w, $hint")
        }
        assert(approx(got("kendall")((cols(i), cols(j))), References.kendallTauBBrute(xs, ys), 1e-12),
          s"kendall vs brute force, $hint")
      }
    }
  }

  private val stats = NumericStats("v", 100, 0, 90, 50.0, 10.0, 0.0, 100.0,
    0.0, 0.0, 0, 0, 0, 5000.0,
    percentiles = Array.tabulate(101)(i => i.toDouble)) // p(k%) = k

  test("boxPlot: quartiles from the percentile grid") {
    val b = LocalStage.boxPlot(stats, 3)
    assert(b.q1 == 25.0 && b.median == 50.0 && b.q3 == 75.0)
    assert(b.outliers == 3)
  }

  test("boxPlot: whiskers clamp fences to observed extremes") {
    val b = LocalStage.boxPlot(stats, 0)
    // fences: 25 - 75 = -50 (clamped to 0), 75 + 75 = 150 (clamped to 100)
    assert(b.lowerWhisker == 0.0 && b.upperWhisker == 100.0)
  }

  test("fences: Tukey 1.5*IQR") {
    val (lo, hi) = LocalStage.fences(stats.q1, stats.q3)
    assert(lo == 25.0 - 1.5 * 50 && hi == 75.0 + 1.5 * 50)
  }

  test("boxFromFiveNumbers: validates length and orders") {
    val b = LocalStage.boxFromFiveNumbers("g", Array(0, 10, 20, 30, 40))
    assert(b.min == 0 && b.q1 == 10 && b.median == 20 && b.q3 == 30 && b.max == 40)
    intercept[IllegalArgumentException](LocalStage.boxFromFiveNumbers("g", Array(1, 2, 3)))
  }

  test("qqPlot: theoretical quantiles are linear in ppf, sample from grid") {
    val qq = LocalStage.qqPlot(stats, 99)
    assert(qq.sample.length == 99 && qq.theoretical.length == 99)
    assert(qq.sample(49) == 50.0) // p=0.50 -> grid index 51? no: value 50
    // symmetric normal: theoretical(p) + theoretical(1-p) = 2 * mean
    assert(approx(qq.theoretical(0) + qq.theoretical(98), 100.0, 1e-6))
  }

  test("qqPlot: degenerate stats yield empty plot") {
    val flat = stats.copy(std = 0.0)
    assert(LocalStage.qqPlot(flat, 99).sample.isEmpty)
  }

  test("pdfCdf: normalization and monotone cdf") {
    val (pdf, cdf) = LocalStage.pdfCdf(Array(1L, 3L, 6L))
    assert(approx(pdf.sum, 1.0))
    assert(cdf.toSeq == Seq(0.1, 0.4, 1.0))
  }

  test("contingencyTable: dense table over top-K categories") {
    val cells = Seq(("a", "x", 5L), ("a", "y", 3L), ("b", "x", 2L), ("c", "z", 1L))
    val t = LocalStage.contingencyTable("r", "c", cells, 2)
    assert(t.rowValues == Seq("a", "b"))
    assert(t.colValues == Seq("x", "y"))
    assert(t.counts(0)(0) == 5 && t.counts(0)(1) == 3 && t.counts(1)(0) == 2)
  }

  test("assembleOverview: dendrogram distance is the disagreement fraction of the counts") {
    // indicators x=(1,1,0,0), y=(1,0,0,0): 2 + 1 - 2·1 = 1 disagreement in 4 rows
    val counts = Missing.MissingCounts(4, Array(Array(2L, 1L), Array(1L, 1L)),
      MissingSpectrum(Seq("x", "y"), Nil, Array.empty))
    val ov = Missing.assembleOverview(Seq("x", "y"), counts, EdaConfig.default)
    assert(ov.dendrogram.merges == Seq(Dendrogram.Merge(0, 1, 0.25, 2)))
    assert(ov.bar.missingCounts == Seq(2L, 1L))
    // 0/1 moments: (4·1 − 2·1) / √(4·2 − 2²) / √(4·1 − 1²)
    assert(ov.nullityCorrelation(0, 1) == 2 / math.sqrt(4) / math.sqrt(3))
  }

  test("kdeCurve: shares the histogram reduction") {
    val hist = Histogram("v", Array.tabulate(11)(i => i * 10.0),
      Array.fill(10)(10L))
    val kde = LocalStage.kdeCurve(stats, hist, 100)
    assert(kde.grid.length == 100)
    assert(kde.density.forall(_ >= 0))
  }
}
