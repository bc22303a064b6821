package repro.core

import repro.{Oracle, SparkSpec, TestHelpers}
import repro.stats.LocalStats

/** plot(df, col1): the Figure 2 row-2 mapping rules. */
class UnivariateSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val numDf = (Seq.tabulate(200)(i => (i % 40).toDouble) ++ Seq(500.0, -300.0))
    .toDF("v").cache() // two extreme outliers
  private lazy val cfg = EdaConfig.default

  private lazy val numeric = Univariate.numeric(numDf, "v", cfg)

  test("numeric: detects type and produces all five Figure-2 artifacts") {
    val u = Univariate.compute(numDf, "v", cfg)
    assert(u.isInstanceOf[Univariate.NumericUnivariate])
    val n = u.asInstanceOf[Univariate.NumericUnivariate]
    assert(n.histogram.total > 0 && n.kde.grid.nonEmpty &&
      n.qq.sample.nonEmpty && n.box.q1 <= n.box.median)
  }

  test("numeric: stats match DuckDB") {
    val s = numeric.stats
    val got = Seq((s.count, s.mean, s.min, s.max)).toDF("cnt", "m", "mn", "mx")
    Oracle.assertEquivalent(got,
      "SELECT count(v) AS cnt, avg(CAST(v AS DOUBLE)) AS m, " +
      "min(CAST(v AS DOUBLE)) AS mn, max(CAST(v AS DOUBLE)) AS mx FROM t", "t" -> numDf)
  }

  test("numeric: histogram total equals count") {
    assert(numeric.histogram.total == numeric.stats.count)
  }

  test("numeric: box plot flags the two extremes as outliers") {
    assert(numeric.box.outliers == 2)
    assert(numeric.box.lowerWhisker >= numeric.stats.min)
    assert(numeric.box.upperWhisker <= numeric.stats.max)
  }

  test("numeric: outlier count matches DuckDB beyond the Tukey fences") {
    val (lo, hi) = LocalStage.fences(numeric.stats.q1, numeric.stats.q3)
    val got = Seq(Tuple1(numeric.box.outliers)).toDF("n")
    Oracle.assertEquivalent(got,
      s"SELECT count(*) FILTER (WHERE CAST(v AS DOUBLE) < $lo OR CAST(v AS DOUBLE) > $hi) AS n FROM t",
      "t" -> numDf)
  }

  test("numeric: Q-Q sample quantiles are the percentile grid") {
    val qq = numeric.qq
    assert(qq.sample.length == cfg.int("qq.points"))
    assert(qq.theoretical.length == qq.sample.length)
    // theoretical quantiles follow mean + std * ppf
    val s = numeric.stats
    assertApprox(qq.theoretical(49 - 0), s.mean + s.std * LocalStats.normalPpf(0.5), 1e-9,
      "median theoretical")
  }

  test("numeric: KDE is positive over the data range") {
    val kde = numeric.kde
    assert(kde.density.exists(_ > 0))
    assert(kde.grid.head < numeric.stats.min && kde.grid.last > numeric.stats.max)
  }

  test("numeric: shared histogram/outliers avoid recomputation") {
    val hist = Intermediates.Histogram("v", Array(0.0, 1.0), Array(7L))
    val u = Univariate.fromStats(numeric.stats, cfg, Map("v" -> SparkStage.BinnedColumn(hist, Array(7L), 42L)))
    assert(u.histogram eq hist)
    assert(u.box.outliers == 42L)
  }

  test("numeric: normal data is flagged approximately normal") {
    val d = spark.range(5000).selectExpr("randn(7) as v")
    val u = Univariate.numeric(d, "v", cfg)
    assert(u.insights.exists(_.kind == "normal"), u.insights.map(_.kind).toString)
  }

  test("numeric: lognormal data is flagged skewed") {
    val d = spark.range(5000).selectExpr("exp(randn(7) * 1.5) as v")
    val u = Univariate.numeric(d, "v", cfg)
    assert(u.insights.exists(_.kind == "skewed"))
  }

  private lazy val catDf = (Seq.fill(30)("alpha beta") ++ Seq.fill(20)("beta") ++
    Seq.fill(10)("gamma") ++ Seq("delta")).toDF("c").cache()
  private lazy val categorical = Univariate.categorical(catDf, "c", cfg)

  test("categorical: detects type and produces stats/bar/pie/words") {
    val u = Univariate.compute(catDf, "c", cfg)
    assert(u.isInstanceOf[Univariate.CategoricalUnivariate])
  }

  test("categorical: stats match DuckDB") {
    val s = categorical.stats
    val got = Seq((s.count, s.distinct, s.minLength, s.maxLength)).toDF("cnt", "d", "mn", "mx")
    Oracle.assertEquivalent(got,
      "SELECT count(c) AS cnt, count(DISTINCT c) AS d, min(length(c)) AS mn, " +
      "max(length(c)) AS mx FROM t", "t" -> catDf)
  }

  test("categorical: frequencies ordered and complete") {
    val f = categorical.frequencies
    assert(f.topK.head == ("alpha beta", 30L))
    assert(f.topK.map(_._2).sum + f.otherCount == f.totalNonNull)
  }

  test("categorical: word frequencies split on whitespace") {
    val w = categorical.words
    assert(w.topK.toMap == Map("beta" -> 50L, "alpha" -> 30L, "gamma" -> 10L, "delta" -> 1L))
  }

  test("categorical: word frequencies match DuckDB token counts") {
    val w = categorical.words
    val got = w.topK.toDF("word", "cnt")
    Oracle.assertEquivalent(got,
      "SELECT word, count(*) AS cnt FROM " +
      "(SELECT unnest(string_split(lower(c), ' ')) AS word FROM t) q GROUP BY word",
      "t" -> catDf)
  }

  test("categorical: high-cardinality insight fires") {
    val wide = (1 to 200).map(i => s"val_$i").toDF("c")
    val u = Univariate.categorical(wide, "c", cfg)
    assert(u.insights.exists(_.kind == "high-cardinality"))
    assert(u.insights.exists(_.kind == "unique"))
  }

  test("constant column insight fires") {
    val const = Seq.fill(10)("same").toDF("c")
    val u = Univariate.categorical(const, "c", cfg)
    assert(u.insights.exists(_.kind == "constant"))
  }
}
