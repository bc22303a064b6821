package repro.core

import repro.{Oracle, SparkSpec, TestHelpers}
import repro.stats.References

/** plot_correlation(df[, col1[, col2]]). */
class CorrelationSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val cfg = EdaConfig.default

  // x: linear with y, independent-ish of z; w categorical is ignored
  private lazy val df = (1 to 300).map { i =>
    val x = i.toDouble
    (x, 2 * x + (i % 13).toDouble, (i * 2654435761L % 97).toDouble, s"c${i % 3}")
  }.toDF("x", "y", "z", "w").cache()

  private lazy val inter = Correlation.matrix(df, cfg)

  test("matrix: only numeric columns participate") {
    assert(inter.columns == Seq("x", "y", "z"))
  }

  test("matrix: all three configured methods computed") {
    assert(inter.matrices.map(_.method) == Seq("pearson", "spearman", "kendall"))
  }

  test("matrix: pearson matches DuckDB corr for every pair") {
    val p = inter.matrices.find(_.method == "pearson").get
    val got = Seq((p(0, 1), p(0, 2), p(1, 2))).toDF("xy", "xz", "yz")
    Oracle.assertEquivalent(got,
      "SELECT corr(CAST(x AS DOUBLE), CAST(y AS DOUBLE)) AS xy, " +
      "corr(CAST(x AS DOUBLE), CAST(z AS DOUBLE)) AS xz, " +
      "corr(CAST(y AS DOUBLE), CAST(z AS DOUBLE)) AS yz FROM t", "t" -> df)
  }

  test("matrix: symmetric with unit diagonal") {
    inter.matrices.foreach { m =>
      for (i <- 0 until 3; j <- 0 until 3) {
        if (i == j) assert(m(i, j) == 1.0)
        else assertApprox(m(i, j), m(j, i), 1e-12, s"${m.method}($i,$j)")
      }
    }
  }

  test("matrix: spearman matches the local reference") {
    val sp = inter.matrices.find(_.method == "spearman").get
    val xs = collectDoubles(df, "x"); val ys = collectDoubles(df, "y")
    assertApprox(sp(0, 1), References.spearmanArrays(xs.toArray, ys.toArray), 1e-9, "spearman xy")
  }

  test("matrix: kendall matches the local reference") {
    val kd = inter.matrices.find(_.method == "kendall").get
    val xs = collectDoubles(df, "x").toArray; val zs = collectDoubles(df, "z").toArray
    assertApprox(kd(0, 2), References.kendallTauB(xs, zs), 1e-9, "kendall xz")
  }

  test("matrix: kendall counts -0.0 and 0.0 as tied, as pandas and scipy do") {
    val d = Seq((-0.0, 5.0), (0.0, 1.0), (1.0, 3.0)).toDF("x", "y")
    // the collect keeps the sign of zero, so the kernels see both zeros
    val collected = SparkStage.collectNumericMatrix(d, Seq("x"), 3, 10)(0)
    assert(java.lang.Double.compare(collected(0), collected(1)) < 0, collected.toSeq)
    // pairs: (0,1) tied in x, (0,2) discordant, (1,2) concordant -> P - Q = 0
    val kd = Correlation.matrix(d, cfg).matrices.find(_.method == "kendall").get
    assert(kd(0, 1) == 0.0, s"kendall = ${kd(0, 1)}")
    assert(References.kendallTauBBrute(Array(-0.0, 0.0, 1.0), Array(5.0, 1.0, 3.0)) == 0.0)
  }

  test("matrix: monotone nonlinear relation gives spearman 1, pearson < 1") {
    val d = (1 to 100).map(i => (i.toDouble, math.exp(i / 10.0))).toDF("a", "b")
    val m = Correlation.matrix(d, cfg)
    val p = m.matrices.find(_.method == "pearson").get
    val s = m.matrices.find(_.method == "spearman").get
    assert(s(0, 1) > 0.999999)
    assert(p(0, 1) < 0.95)
  }

  test("matrix: constant column yields NaN against everything") {
    val d = Seq((1.0, 5.0), (2.0, 5.0), (3.0, 5.0)).toDF("a", "b")
    val m = Correlation.matrix(d, cfg)
    m.matrices.foreach { mm =>
      assert(mm(0, 1).isNaN, s"${mm.method}")
      assert(mm(1, 1).isNaN, s"${mm.method} diagonal of constant")
    }
  }

  test("a constant column whose sums round has no pearson r and no regression line") {
    // n·Σc² − (Σc)² of 0.1 on 43 rows is rounding residue, not 0
    val d = (0 until 43).map(i => (0.1, i.toDouble)).toDF("c", "y")
    val pearson = Correlation.matrix(d, cfg).matrices.find(_.method == "pearson").get
    assert(pearson(0, 1).isNaN && pearson(1, 0).isNaN)
    val pair = Correlation.pair(d, "c", "y", cfg)
    assert(pair.coefficients("pearson").isNaN && pair.scatter.pearson.isNaN)
    assert(pair.scatter.slope.isNaN && pair.scatter.intercept.isNaN)
    val nn = Bivariate.numNum(d, "c", "y", cfg)
    assert(nn.scatter.slope.isNaN && nn.scatter.intercept.isNaN)
  }

  test("matrix: nulls are pairwise-deleted for pearson") {
    val d = Seq(
      (Option(1.0), Option(1.0), Option(9.0)),
      (Option(2.0), None, Option(8.0)),
      (Option(3.0), Option(3.0), Option(7.0)),
      (Option(4.0), Option(5.0), None),
    ).toDF("a", "b", "c")
    val m = Correlation.matrix(d, cfg)
    val p = m.matrices.find(_.method == "pearson").get
    val got = Seq(Tuple1(p(0, 1))).toDF("r")
    Oracle.assertEquivalent(got,
      "SELECT corr(CAST(a AS DOUBLE), CAST(b AS DOUBLE)) AS r FROM t", "t" -> d)
  }

  test("matrix: high-correlation insight fires for x~y") {
    assert(inter.insights.exists(i =>
      i.kind == "high-correlation" && i.columns.toSet == Set("x", "y")))
  }

  test("matrix: fewer than two numeric columns yields empty result") {
    val d = Seq(("a", 1.0)).toDF("s", "v")
    assert(Correlation.matrix(d, cfg).matrices.isEmpty)
  }

  test("matrix: method list is configurable") {
    val m = Correlation.matrix(df, EdaConfig.from(Map("corr.methods" -> Seq("pearson"))))
    assert(m.matrices.map(_.method) == Seq("pearson"))
  }

  test("vector: correlates one column against all others") {
    val v = Correlation.vector(df, "y", cfg)
    assert(v.others == Seq("x", "z"))
    assert(v.vectors.map(_.method) == Seq("pearson", "spearman", "kendall"))
    val pv = v.vectors.find(_.method == "pearson").get
    val full = inter.matrices.find(_.method == "pearson").get
    assertApprox(pv.values(0), full(0, 1), 1e-9, "vector vs matrix")
  }

  test("vector: rejects categorical column") {
    intercept[IllegalArgumentException](Correlation.vector(df, "w", cfg))
  }

  test("pair: coefficients and regression line") {
    val p = Correlation.pair(df, "x", "y", cfg)
    assert(p.coefficients.keySet == Set("pearson", "spearman", "kendall"))
    assert(p.coefficients("pearson") > 0.99)
    assert(p.coefficients("spearman") > 0.99)
    assert(p.scatter.slope > 1.9 && p.scatter.slope < 2.1)
    assert(p.scatter.points.nonEmpty)
  }

  test("pair: pearson matches DuckDB") {
    val p = Correlation.pair(df, "x", "z", cfg)
    val got = Seq(Tuple1(p.coefficients("pearson"))).toDF("r")
    Oracle.assertEquivalent(got,
      "SELECT corr(CAST(x AS DOUBLE), CAST(z AS DOUBLE)) AS r FROM t", "t" -> df)
  }

  test("pair: rejects categorical columns") {
    intercept[IllegalArgumentException](Correlation.pair(df, "x", "w", cfg))
  }

  test("corr.maxcols caps the matrix width") {
    val m = Correlation.matrix(df, EdaConfig.from(Map("corr.maxcols" -> 2)))
    assert(m.columns == Seq("x", "y"))
  }
}
