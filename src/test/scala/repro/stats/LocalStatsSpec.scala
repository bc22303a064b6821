package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pure-Scala substrate tests: closed-form values plus seeded-random
  * property checks against brute-force references.
  */
class LocalStatsSpec extends AnyFunSuite {
  import LocalStats.{PairMoments, SortedColumn, l1Distance, normalPpf, normalizedEntropy, pearsonArrays}
  import References.{kendallTauBBrute, mean, normalCdf, skewness, stddev, variance}

  /** The sort-once kernels on a pair of columns with no missing value. */
  private def averageRanksArray(xs: Array[Double]): Array[Double] = new SortedColumn(xs).ranks
  private def spearmanArrays(x: Array[Double], y: Array[Double]): Double =
    LocalStats.spearman(new SortedColumn(x), new SortedColumn(y))
  private def kendallTauB(x: Array[Double], y: Array[Double]): Double =
    LocalStats.kendallTauB(new SortedColumn(x), new SortedColumn(y))

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Deterministic mini property harness (no scalatestplus offline). */
  private def property(cases: Int)(body: Random => Unit): Unit =
    (0 until cases).foreach(i => body(new Random(1234 + i)))

  test("mean of known values") { assert(mean(Seq(1, 2, 3, 4)) == 2.5) }
  test("mean of empty is NaN") { assert(mean(Nil).isNaN) }

  test("variance matches n-1 formula") {
    assert(approx(variance(Seq(2, 4, 4, 4, 5, 5, 7, 9)), 32.0 / 7))
  }
  test("variance of singleton is NaN") { assert(variance(Seq(1.0)).isNaN) }
  test("stddev of constant sequence is 0") { assert(stddev(Seq(3, 3, 3)) == 0.0) }

  test("skewness of symmetric data is 0") {
    assert(approx(skewness(Seq(1, 2, 3, 4, 5)), 0.0))
  }
  test("skewness of right-skewed data is positive") {
    assert(skewness(Seq(1, 1, 1, 1, 10)) > 1.0)
  }
  test("skewness of constant data is NaN") { assert(skewness(Seq(2, 2, 2)).isNaN) }

  test("pearson of perfectly linear data is 1") {
    assert(approx(pearsonArrays(Array(1, 2, 3), Array(2, 4, 6)), 1.0))
  }
  test("pearson of anti-linear data is -1") {
    assert(approx(pearsonArrays(Array(1, 2, 3), Array(6, 4, 2)), -1.0))
  }
  test("pearson of known data") {
    // x=(1,2,3,4,5), y=(2,1,4,3,5): r = 0.8
    assert(approx(pearsonArrays(Array(1.0, 2, 3, 4, 5), Array(2.0, 1, 4, 3, 5)), 0.8))
  }
  test("pearson with zero variance is NaN") {
    assert(pearsonArrays(Array(1, 1, 1), Array(1, 2, 3)).isNaN)
  }
  test("pearson is bounded in [-1, 1] (property)") {
    property(30) { rnd =>
      val n = 2 + rnd.nextInt(50)
      val x = Array.fill(n)(rnd.nextDouble() * 100 - 50)
      val y = Array.fill(n)(rnd.nextDouble() * 100 - 50)
      val r = pearsonArrays(x, y)
      assert(r.isNaN || (r >= -1.0 - 1e-12 && r <= 1.0 + 1e-12))
    }
  }

  test("averageRanks without ties") {
    assert(averageRanksArray(Array(30.0, 10.0, 20.0)).toSeq == Seq(3.0, 1.0, 2.0))
  }
  test("averageRanks shares tie ranks") {
    assert(averageRanksArray(Array(1.0, 2.0, 2.0, 3.0)).toSeq == Seq(1.0, 2.5, 2.5, 4.0))
  }
  test("averageRanks all equal") {
    assert(averageRanksArray(Array(5.0, 5.0, 5.0)).toSeq == Seq(2.0, 2.0, 2.0))
  }
  test("averageRanks sums to n(n+1)/2 (property)") {
    property(30) { rnd =>
      val n = 1 + rnd.nextInt(40)
      val xs = Array.fill(n)(rnd.nextInt(10).toDouble)
      assert(approx(averageRanksArray(xs).sum, n * (n + 1) / 2.0))
    }
  }

  test("spearman of monotone transform is 1") {
    val x = Array(1.0, 2, 3, 4, 5)
    assert(approx(spearmanArrays(x, x.map(v => v * v * v)), 1.0))
  }
  test("spearman of reversed order is -1") {
    assert(approx(spearmanArrays(Array(1.0, 2, 3, 4), Array(9.0, 7, 4, 1)), -1.0))
  }

  test("kendall tau of identical order is 1") {
    assert(approx(kendallTauB(Array(1, 2, 3, 4), Array(10, 20, 30, 40)), 1.0))
  }
  test("kendall tau of reversed order is -1") {
    assert(approx(kendallTauB(Array(1, 2, 3, 4), Array(4, 3, 2, 1)), -1.0))
  }
  test("kendall tau known value with one discordant pair") {
    // x=(1,2,3), y=(1,3,2): P=2, Q=1 -> tau = 1/3
    assert(approx(kendallTauB(Array(1, 2, 3), Array(1, 3, 2)), 1.0 / 3))
  }
  test("kendall tau-b handles ties (hand-computed reference)") {
    // x=(1,1,2,3), y=(1,2,2,3): P=4, Q=0, tx=ty=1 -> tau-b = 4/sqrt(5*5) = 0.8
    assert(approx(kendallTauB(Array(1, 1, 2, 3), Array(1, 2, 2, 3)), 0.8, 1e-12))
  }
  test("kendall tau of constant x is NaN") {
    assert(kendallTauB(Array(1, 1, 1), Array(1, 2, 3)).isNaN)
  }
  test("kendall tau of single element is NaN") {
    assert(kendallTauB(Array(1.0), Array(1.0)).isNaN)
  }
  test("kendall tau-b matches brute force on random data (property)") {
    property(60) { rnd =>
      val n = 2 + rnd.nextInt(60)
      val xs = Array.fill(n)((rnd.nextInt(11) - 5).toDouble)
      val ys = Array.fill(n)((rnd.nextInt(11) - 5).toDouble)
      val fast = kendallTauB(xs, ys)
      val brute = kendallTauBBrute(xs, ys)
      assert(approx(fast, brute, 1e-12), s"fast=$fast brute=$brute xs=${xs.toSeq} ys=${ys.toSeq}")
    }
  }
  test("kendall tau-b symmetric in arguments (property)") {
    property(30) { rnd =>
      val n = 2 + rnd.nextInt(40)
      val xs = Array.fill(n)((rnd.nextInt(19) - 9).toDouble)
      val ys = Array.fill(n)((rnd.nextInt(19) - 9).toDouble)
      assert(approx(kendallTauB(xs, ys), kendallTauB(ys, xs), 1e-12))
    }
  }
  test("kendall tau-b on continuous random data matches brute force (property)") {
    property(30) { rnd =>
      val n = 2 + rnd.nextInt(80)
      val xs = Array.fill(n)(rnd.nextDouble() * 10)
      val ys = Array.fill(n)(rnd.nextDouble() * 10)
      assert(approx(kendallTauB(xs, ys), kendallTauBBrute(xs, ys), 1e-12))
    }
  }

  test("normalPpf known values") {
    assert(approx(normalPpf(0.5), 0.0, 1e-8))
    assert(approx(normalPpf(0.975), 1.959963984540054, 1e-7))
    assert(approx(normalPpf(0.025), -1.959963984540054, 1e-7))
    assert(approx(normalPpf(0.8413447460685429), 1.0, 1e-6))
  }
  test("normalPpf rejects out-of-range p") {
    intercept[IllegalArgumentException](normalPpf(0.0))
    intercept[IllegalArgumentException](normalPpf(1.0))
  }
  test("normalPpf is antisymmetric around 0.5") {
    Seq(0.01, 0.1, 0.25, 0.4).foreach(p =>
      assert(approx(normalPpf(p), -normalPpf(1 - p), 1e-8)))
  }
  test("normalPpf is monotone (property)") {
    property(30) { rnd =>
      val p = 0.01 + rnd.nextDouble() * 0.97
      assert(normalPpf(p) < normalPpf(p + 0.01))
    }
  }
  test("normalCdf inverts normalPpf (property)") {
    property(30) { rnd =>
      val p = 0.02 + rnd.nextDouble() * 0.96
      assert(approx(normalCdf(normalPpf(p)), p, 1e-5))
    }
  }

  test("normalizedEntropy of uniform distribution is 1") {
    assert(approx(normalizedEntropy(Seq(5, 5, 5, 5)), 1.0))
  }
  test("normalizedEntropy of a point mass is 0") {
    assert(normalizedEntropy(Seq(10, 0, 0)) == 0.0)
  }
  test("normalizedEntropy between 0 and 1 (property)") {
    property(30) { rnd =>
      val counts = Seq.fill(1 + rnd.nextInt(20))(rnd.nextInt(100).toLong)
      val e = normalizedEntropy(counts)
      assert(e >= 0.0 && e <= 1.0 + 1e-12)
    }
  }

  test("l1Distance of identical shapes is 0") {
    assert(l1Distance(Seq(1, 2, 3), Seq(2, 4, 6)) == 0.0) // same after normalization
  }
  test("l1Distance of disjoint distributions is 2") {
    assert(approx(l1Distance(Seq(10, 0), Seq(0, 10)), 2.0))
  }
  test("l1Distance rejects mismatched lengths") {
    intercept[IllegalArgumentException](l1Distance(Seq(1L), Seq(1L, 2L)))
  }

  test("PairMoments pearson matches direct pearson") {
    val x = Seq(1.0, 2, 3, 4, 5); val y = Seq(2.0, 1, 4, 3, 5)
    val m = PairMoments(5, x.sum, y.sum, x.map(a => a * a).sum,
      y.map(a => a * a).sum, x.zip(y).map { case (a, b) => a * b }.sum)
    assert(approx(m.pearson, pearsonArrays(x.toArray, y.toArray)))
  }
  test("PairMoments regression recovers a known line") {
    val x = Seq(0.0, 1, 2, 3); val y = x.map(v => 2 * v + 1)
    val m = PairMoments(4, x.sum, y.sum, x.map(a => a * a).sum,
      y.map(a => a * a).sum, x.zip(y).map { case (a, b) => a * b }.sum)
    val (slope, intercept) = m.regression
    assert(approx(slope, 2.0) && approx(intercept, 1.0))
  }
  test("PairMoments with n<2 yields NaN") {
    assert(PairMoments(1, 1, 1, 1, 1, 1).pearson.isNaN)
    assert(PairMoments(0, 0, 0, 0, 0, 0).regression._1.isNaN)
  }
}
