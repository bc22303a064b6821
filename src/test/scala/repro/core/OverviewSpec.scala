package repro.core

import repro.{Oracle, SparkSpec, TestHelpers}

/** plot(df): overview task (Figure 2 row 1). */
class OverviewSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val df = Seq(
    (Option(1.0), Option(10.0), Option("a")),
    (Option(2.0), None, Option("b")),
    (Option(3.0), Option(30.0), Option("a")),
    (None: Option[Double], Option(40.0), None: Option[String]),
    (Option(1.0), Option(10.0), Option("a")), // duplicate
    (Option(1.0), Option(10.0), Option("a")), // duplicate
  ).toDF("x", "y", "c").cache()

  private lazy val cfg = EdaConfig.default
  private lazy val o = Overview.compute(df, cfg)

  test("dataset stats: rows/columns/types") {
    assert(o.dataset.rows == 6)
    assert(o.dataset.columns == 3)
    assert(o.dataset.numericColumns == 2 && o.dataset.categoricalColumns == 1)
  }

  test("dataset stats: missing cells match DuckDB") {
    val got = Seq(Tuple1(o.dataset.missingCells)).toDF("m")
    Oracle.assertEquivalent(got,
      "SELECT (count(*) - count(x)) + (count(*) - count(y)) + (count(*) - count(c)) AS m FROM t",
      "t" -> df)
  }

  test("dataset stats: duplicate rows") {
    assert(o.dataset.duplicateRows == 2)
  }

  test("one histogram per numeric column with data") {
    assert(o.histograms.keySet == Set("x", "y"))
    assert(o.histograms("x").total == 5)
    assert(o.histograms("y").total == 5)
  }

  test("one bar chart per categorical column") {
    assert(o.frequencies.keySet == Set("c"))
    val f = o.frequencies("c")
    assert(f.topK.head == ("a", 4L))
    assert(f.totalNonNull == 5 && f.distinct == 2)
  }

  test("per-column stats preserved in schema order") {
    assert(o.numericStats.map(_.name) == Seq("x", "y"))
    assert(o.categoricalStats.map(_.name) == Seq("c"))
  }

  test("missing insight fires for columns above threshold") {
    // x and y each 1/6 missing > 5% default threshold
    assert(o.insights.count(_.kind == "missing") >= 2)
  }

  test("similar-distribution insight fires for identically shaped columns") {
    val d = spark.range(2000).selectExpr("rand(1) as a", "rand(2) as b", "exp(randn(3)*2) as c")
    val ov = Overview.compute(d, cfg)
    val sim = ov.insights.filter(_.kind == "similar-distribution")
    assert(sim.exists(i => i.columns.toSet == Set("a", "b")))
    assert(!sim.exists(i => i.columns.contains("c")))
  }

  test("all-null numeric column is tolerated") {
    val d = Seq((Option.empty[Double], 1.0), (Option.empty[Double], 2.0)).toDF("dead", "ok")
    val ov = Overview.compute(d, cfg)
    assert(ov.numericStats.find(_.name == "dead").get.count == 0)
    assert(!ov.histograms.contains("dead")) // skipped: no data
    assert(ov.histograms.contains("ok"))
  }

  test("fromAggregates honors shared reductions (no recompute)") {
    val numeric = SparkStage.numericStats(df, Seq("x", "y"))
    val myHist = Map("x" -> Intermediates.Histogram("x", Array(0.0, 1.0), Array(1L)))
    val c = SparkStage.frequencies(df, Seq("c"), 10)("c").copy(top = Seq(("z", 9L, 9L)))
    val ov = Overview.fromAggregates(cfg, Seq("x", "y").map(numeric), Seq(c), SparkStage.tableCounts(df), myHist)
    assert(ov.histograms eq myHist)
    assert(ov.frequencies("c").topK == Seq(("z", 9L)))
  }
}
