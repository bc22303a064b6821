package repro.core

import org.apache.spark.sql.functions.lit

import repro.{Oracle, SparkSpec, TestHelpers}

/** plot_missing(df[, col1[, col2]]). */
class MissingSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val cfg = EdaConfig.default

  // a, b missing together on even rows; c complete numeric; s sparse categorical
  private lazy val df = (0 until 100).map { i =>
    val even = i % 2 == 0
    (if (even) None else Option(i.toDouble),
     if (even) None else Option(i * 2.0),
     Option(i.toDouble),
     if (i % 10 == 0) None else Option(s"g${i % 4}"))
  }.toDF("a", "b", "c", "s").cache()

  private lazy val ov = Missing.overview(df, cfg)

  test("overview: bar chart counts match DuckDB") {
    val got = ov.bar.columns.zip(ov.bar.missingCounts).toDF("col", "mis")
    Oracle.assertEquivalent(got,
      "SELECT 'a' AS col, count(*) - count(a) AS mis FROM t UNION ALL " +
      "SELECT 'b', count(*) - count(b) FROM t UNION ALL " +
      "SELECT 'c', count(*) - count(c) FROM t UNION ALL " +
      "SELECT 's', count(*) - count(s) FROM t", "t" -> df)
  }

  test("overview: spectrum fractions are in [0,1] and buckets cover all rows") {
    val sp = ov.spectrum
    assert(sp.buckets.head._1 == 0 && sp.buckets.last._2 == 99)
    sp.missingFraction.flatten.foreach(f => assert(f >= 0.0 && f <= 1.0))
  }

  test("overview: nullity correlation of always-co-missing columns is 1") {
    val m = ov.nullityCorrelation
    val ai = m.columns.indexOf("a"); val bi = m.columns.indexOf("b")
    assert(ai >= 0 && bi >= 0)
    assertApprox(m(ai, bi), 1.0, 1e-9, "nullity a~b")
  }

  test("overview: complete columns are excluded from the nullity matrix") {
    assert(!ov.nullityCorrelation.columns.contains("c"))
    assert(ov.nullityCorrelation.columns.toSet == Set("a", "b", "s"))
  }

  test("overview: dendrogram joins co-missing columns first at distance 0") {
    val d = ov.dendrogram
    val first = d.merges.head
    assert(first.distance == 0.0)
    val ai = d.columns.indexOf("a"); val bi = d.columns.indexOf("b")
    assert(Set(first.left, first.right) == Set(ai, bi))
  }

  test("overview: correlated-missingness insight fires for a~b") {
    assert(ov.insights.exists(i =>
      i.kind == "correlated-missingness" && i.columns.toSet == Set("a", "b")))
  }

  test("overview: missing insight fires for 50%-missing columns") {
    assert(ov.insights.exists(i => i.kind == "missing" && i.columns == Seq("a")))
  }

  test("overview: NaN counts as missing for numeric columns") {
    val d = Seq(1.0, Double.NaN, 3.0).toDF("x")
    val o2 = Missing.overview(d, cfg)
    assert(o2.bar.missingCounts == Seq(1L))
  }

  private lazy val impact = Missing.impact(df, "a", cfg)

  test("impact: kept-row count matches non-missing rows of col1") {
    assert(impact.rowsTotal == 100 && impact.rowsKept == 50)
  }

  test("impact: histograms for every other numeric column, before >= after") {
    assert(impact.histograms.keySet == Set("b", "c"))
    impact.histograms.values.foreach { h =>
      assert(h.before.sum >= h.after.sum)
      h.before.zip(h.after).foreach { case (b2, a2) => assert(b2 >= a2) }
    }
  }

  test("impact: dropping a's missing rows halves c's distribution") {
    val hc = impact.histograms("c")
    assert(hc.before.sum == 100 && hc.after.sum == 50)
  }

  test("impact: b disappears entirely when a is dropped-missing (co-missing)") {
    val hb = impact.histograms("b")
    assert(hb.before.sum == 50 && hb.after.sum == 50) // b present exactly when a present
  }

  test("impact: frequencies for categorical columns with before/after") {
    val f = impact.frequencies("s")
    f.values.foreach { case (_, before, after) => assert(before >= after) }
    val beforeTotal = f.values.map(_._2).sum
    val got = Seq(Tuple1(beforeTotal)).toDF("n")
    Oracle.assertEquivalent(got, "SELECT count(s) AS n FROM t", "t" -> df)
  }

  test("impact: per-bin and per-value before/after counts match DuckDB") {
    val bins = cfg.int("hist.bins")
    assert(impact.histograms.keySet == Set("b", "c"))
    impact.histograms.foreach { case (c, h) =>
      val got = h.before.indices.collect { case i if h.before(i) > 0 => (i, h.before(i), h.after(i)) }
        .toDF("bin", "n_before", "n_after")
      Oracle.assertEquivalent(got,
        s"WITH r AS (SELECT min(CAST($c AS DOUBLE)) AS lo, " +
        s"(max(CAST($c AS DOUBLE)) - min(CAST($c AS DOUBLE))) / $bins AS w FROM t) " +
        s"SELECT LEAST(${bins - 1}, GREATEST(0, CAST(FLOOR((CAST($c AS DOUBLE) - r.lo) / r.w) AS INT))) AS bin, " +
        "count(*) AS n_before, count(*) FILTER (WHERE a IS NOT NULL) AS n_after " +
        s"FROM t, r WHERE $c IS NOT NULL GROUP BY 1", "t" -> df)
    }
    Oracle.assertEquivalent(impact.frequencies("s").values.toDF("v", "n_before", "n_after"),
      "SELECT s AS v, count(*) AS n_before, count(*) FILTER (WHERE a IS NOT NULL) AS n_after " +
      "FROM t WHERE s IS NOT NULL GROUP BY s", "t" -> df)
  }

  test("impact: missing-impact insight fires when distribution shifts") {
    // c over even rows only (kept = odd rows) shifts within bins: parity alternates
    // within bins, so L1 is small; build a column whose distribution truly shifts
    val d = (0 until 100).map { i =>
      (if (i < 50) None else Option(1.0), i.toDouble)
    }.toDF("m", "v")
    val im = Missing.impact(d, "m", cfg)
    assert(im.insights.exists(_.kind == "missing-impact"))
  }

  test("pair (numeric): histogram/pdf/cdf/boxes produced") {
    val p = Missing.pair(df, "a", "c", cfg)
    assert(p.histogram.nonEmpty && p.boxes.nonEmpty && p.frequencies.isEmpty)
    assert(p.pdfBefore.length == cfg.int("hist.bins"))
    assertApprox(p.pdfBefore.sum, 1.0, 1e-9, "pdf sums to 1")
    assertApprox(p.cdfBefore.last, 1.0, 1e-9, "cdf ends at 1")
    assert(p.cdfAfter.zip(p.cdfAfter.tail).forall { case (x, y) => x <= y + 1e-12 })
  }

  test("pair (numeric): rows kept matches col1 presence") {
    val p = Missing.pair(df, "a", "c", cfg)
    assert(p.rowsTotal == 100 && p.rowsKept == 50)
  }

  test("pair (numeric): before box covers full range, after only kept rows") {
    val p = Missing.pair(df, "a", "c", cfg)
    val b = p.boxes.get
    assert(b.before.min == 0.0 && b.before.max == 99.0)
    assert(b.after.min == 1.0 && b.after.max == 99.0) // odd rows only
  }

  test("pair (numeric): an all-null col2 has no histogram, PDF, CDF or boxes, as in impact") {
    val d = df.withColumn("dead", lit(null).cast("double"))
    val p = Missing.pair(d, "a", "dead", cfg)
    assert(p.histogram.isEmpty && p.boxes.isEmpty && p.frequencies.isEmpty)
    assert(Seq(p.pdfBefore, p.pdfAfter, p.cdfBefore, p.cdfAfter).forall(_.isEmpty))
    assert(p.rowsTotal == 100 && p.rowsKept == 50)
    assert(!Missing.impact(d, "a", cfg).histograms.contains("dead"))
  }

  test("pair (categorical): frequencies produced instead of histogram") {
    val p = Missing.pair(df, "a", "s", cfg)
    assert(p.frequencies.nonEmpty && p.histogram.isEmpty && p.boxes.isEmpty)
    p.frequencies.get.values.foreach { case (_, before, after) => assert(before >= after) }
  }

  test("pair: unknown column rejected") {
    intercept[IllegalArgumentException](Missing.pair(df, "nope", "c", cfg))
  }
}
