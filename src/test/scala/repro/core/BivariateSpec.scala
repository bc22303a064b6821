package repro.core

import repro.{Oracle, SparkSpec, TestHelpers}

/** plot(df, col1, col2): the Figure 2 row-3 mapping rules (NN / NC / CC). */
class BivariateSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val cfg = EdaConfig.default

  private lazy val nnDf = (1 to 100).map(i => (i.toDouble, 3.0 * i + 5 + (i % 7))).toDF("x", "y").cache()
  private lazy val nn = Bivariate.numNum(nnDf, "x", "y", cfg)

  test("NN: dispatch on two numeric columns") {
    assert(Bivariate.compute(nnDf, "x", "y", cfg).isInstanceOf[Bivariate.NumNumBivariate])
  }

  test("NN: scatter regression recovers the generating line") {
    assertApprox(nn.scatter.slope, 3.0, 0.02, "slope")
    // intercept absorbs the (i % 7) noise mean (= 3)
    assertApprox(nn.scatter.intercept, 8.0, 0.2, "intercept")
    assert(nn.scatter.pearson > 0.999)
  }

  test("NN: regression matches DuckDB regr_slope/regr_intercept") {
    val got = Seq((nn.scatter.slope, nn.scatter.intercept)).toDF("s", "i")
    Oracle.assertEquivalent(got,
      "SELECT regr_slope(CAST(y AS DOUBLE), CAST(x AS DOUBLE)) AS s, " +
      "regr_intercept(CAST(y AS DOUBLE), CAST(x AS DOUBLE)) AS i FROM t", "t" -> nnDf)
  }

  test("NN: 2-D grid counts every complete pair once") {
    assert(nn.grid.counts.map(_.sum).sum == 100)
  }

  test("NN: binned box plot covers all x bins with data") {
    assert(nn.binnedBox.boxes.nonEmpty)
    assert(nn.binnedBox.xEdges.length == cfg.int("box.bins") + 1)
    nn.binnedBox.boxes.foreach(b => assert(b.q1 <= b.median && b.median <= b.q3))
  }

  test("NN: high-correlation insight fires on linear data") {
    assert(nn.insights.exists(_.kind == "high-correlation"))
  }

  test("NN: scatter sample bounded by config") {
    val small = Bivariate.numNum(nnDf, "x", "y",
      EdaConfig.from(Map("scatter.sample" -> 10)))
    assert(small.scatter.points.size == 10)
  }

  private lazy val ncDf = Seq(
    ("a", 1.0), ("a", 2.0), ("a", 3.0),
    ("b", 10.0), ("b", 20.0),
    ("c", 100.0),
  ).toDF("g", "v").cache()

  test("NC: dispatch when one column is categorical") {
    assert(Bivariate.compute(ncDf, "g", "v", cfg).isInstanceOf[Bivariate.CatNumBivariate])
    assert(Bivariate.compute(ncDf, "v", "g", cfg).isInstanceOf[Bivariate.CatNumBivariate])
  }

  test("NC: one box per category, ordered by frequency") {
    val cn = Bivariate.catNum(ncDf, "g", "v", cfg)
    assert(cn.boxes.boxes.map(_._1) == Seq("a", "b", "c"))
    val aBox = cn.boxes.boxes.head._2
    assert(aBox.min == 1.0 && aBox.max == 3.0 && aBox.median == 2.0)
  }

  test("NC: multi-line histograms count per category") {
    val cn = Bivariate.catNum(ncDf, "g", "v", cfg)
    val lines = cn.lines.lines.toMap
    assert(lines("a").sum == 3 && lines("b").sum == 2 && lines("c").sum == 1)
  }

  test("NC: respects the top-K category cap") {
    val cn = Bivariate.catNum(ncDf, "g", "v", EdaConfig.from(Map("nc.topk" -> 2)))
    assert(cn.boxes.boxes.size == 2)
    assert(cn.boxes.boxes.map(_._1) == Seq("a", "b"))
  }

  test("NC: line edges stay finite when the column's range overflows a double") {
    val huge = Seq(("a", -1e308), ("a", 0.0), ("b", 1e308), ("b", 5.0), ("b", -7.0)).toDF("g", "v")
    val cn = Bivariate.catNum(huge, "g", "v", cfg)
    assert(cn.lines.edges.forall(e => !e.isNaN && !e.isInfinite), cn.lines.edges.toSeq)
    assert(cn.lines.lines.map(_._2.sum).sum == 5)
  }

  test("a numeric column with no finite value gets finite bin edges in NN and NC") {
    val d = Seq[(String, Double, java.lang.Double)](("a", 1.0, null), ("b", 2.0, Double.NaN),
      ("a", 3.0, Double.PositiveInfinity)).toDF("g", "x", "dead")
    def finite(edges: Array[Double]): Boolean = edges.forall(e => !e.isNaN && !e.isInfinite)
    val cn = Bivariate.catNum(d, "g", "dead", cfg)
    assert(finite(cn.lines.edges), cn.lines.edges.toSeq)
    val xDead = Bivariate.numNum(d, "x", "dead", cfg)
    assert(finite(xDead.grid.yEdges), xDead.grid.yEdges.toSeq)
    val deadX = Bivariate.numNum(d, "dead", "x", cfg)
    assert(finite(deadX.grid.xEdges) && finite(deadX.binnedBox.xEdges), deadX.grid.xEdges.toSeq)
  }

  private lazy val ccDf = Seq(
    ("r1", "c1"), ("r1", "c1"), ("r1", "c2"), ("r2", "c2"), ("r2", "c2"), ("r2", "c1"),
  ).toDF("a", "b").cache()

  test("CC: dispatch on two categorical columns") {
    assert(Bivariate.compute(ccDf, "a", "b", cfg).isInstanceOf[Bivariate.CatCatBivariate])
  }

  test("CC: contingency table matches DuckDB") {
    val cc = Bivariate.catCat(ccDf, "a", "b", cfg)
    val t = cc.table
    val got = (for (i <- t.rowValues.indices; j <- t.colValues.indices if t.counts(i)(j) > 0)
      yield (t.rowValues(i), t.colValues(j), t.counts(i)(j))).toDF("a", "b", "cnt")
    Oracle.assertEquivalent(got,
      "SELECT a, b, count(*) AS cnt FROM t GROUP BY a, b", "t" -> ccDf)
  }

  test("CC: top-K cap keeps the most frequent categories") {
    val wide = (1 to 50).flatMap(i => Seq.fill(i % 5 + 1)((s"r$i", "c"))).toDF("a", "b")
    val cc = Bivariate.catCat(wide, "a", "b", cfg)
    assert(cc.table.rowValues.size == cfg.int("cc.topk"))
  }
}
