package repro.baseline

import repro.{SparkSpec, TestHelpers}
import repro.core._
import repro.data.EdaData

/** The baseline must compute the SAME intermediates as the optimized path —
  * Table 2 then compares execution strategies over equal work, exactly as
  * the paper compares equal reports.
  */
class CrossCheckSpec extends SparkSpec with TestHelpers {

  private lazy val df = EdaData.dataset(spark, rows = 400, nNumeric = 3, nCategorical = 2,
    seed = 3).cache()
  private lazy val cfg = EdaConfig.default
  private lazy val fast = Eda.computeReportIntermediates(df, cfg)
  private lazy val slow = Eda.computeReportIntermediates(df, cfg, ProfilingBaseline)

  test("dataset statistics agree") {
    assert(fast.overview.dataset == slow.overview.dataset)
  }

  test("numeric column stats agree (counts exactly, moments to 1e-9)") {
    fast.overview.numericStats.zip(slow.overview.numericStats).foreach { case (a, b) =>
      assert(a.name == b.name)
      assert(a.count == b.count && a.missing == b.missing && a.distinct == b.distinct)
      assert(a.zeros == b.zeros && a.negatives == b.negatives && a.infinites == b.infinites)
      assertApprox(a.mean, b.mean, 1e-9, s"${a.name}.mean")
      assertApprox(a.std, b.std, 1e-9, s"${a.name}.std")
      assertApprox(a.min, b.min, 1e-12, s"${a.name}.min")
      assertApprox(a.max, b.max, 1e-12, s"${a.name}.max")
      assertApprox(a.skewness, b.skewness, 1e-9, s"${a.name}.skewness")
      assertApproxSeq(a.percentiles.toSeq, b.percentiles.toSeq, 1e-12, s"${a.name}.percentiles")
    }
  }

  test("categorical column stats agree exactly") {
    assert(fast.overview.categoricalStats == slow.overview.categoricalStats)
  }

  test("histograms agree bin by bin") {
    assert(fast.overview.histograms.keySet == slow.overview.histograms.keySet)
    fast.overview.histograms.foreach { case (c, h) =>
      assert(h.counts.toSeq == slow.overview.histograms(c).counts.toSeq, c)
      assertApproxSeq(h.edges.toSeq, slow.overview.histograms(c).edges.toSeq, 1e-12, s"$c edges")
    }
  }

  test("frequency tables agree") {
    assert(fast.overview.frequencies.keySet == slow.overview.frequencies.keySet)
    fast.overview.frequencies.foreach { case (c, f) =>
      assert(f.topK == slow.overview.frequencies(c).topK, c)
    }
  }

  test("outlier counts (via box plots) agree") {
    val fb = fast.variables.collect { case n: Univariate.NumericUnivariate => n.stats.name -> n.box.outliers }
    val sb = slow.variables.collect { case n: Univariate.NumericUnivariate => n.stats.name -> n.box.outliers }
    assert(fb == sb)
  }

  test("pearson and spearman matrices agree to 1e-9") {
    for (method <- Seq("pearson", "spearman")) {
      val a = fast.correlations.matrices.find(_.method == method).get
      val b = slow.correlations.matrices.find(_.method == method).get
      assert(a.columns == b.columns)
      for (i <- a.columns.indices; j <- a.columns.indices)
        assertApprox(a(i, j), b(i, j), 1e-9, s"$method($i,$j)")
    }
  }

  test("kendall matrices agree (same sampling threshold, small data -> exact)") {
    val a = fast.correlations.matrices.find(_.method == "kendall").get
    val b = slow.correlations.matrices.find(_.method == "kendall").get
    for (i <- a.columns.indices; j <- a.columns.indices)
      assertApprox(a(i, j), b(i, j), 1e-9, s"kendall($i,$j)")
  }

  test("missing bar charts and nullity columns agree") {
    assert(fast.missing.bar == slow.missing.bar)
    assert(fast.missing.nullityCorrelation.columns == slow.missing.nullityCorrelation.columns)
  }

  test("nullity correlation values agree to 1e-9") {
    val a = fast.missing.nullityCorrelation; val b = slow.missing.nullityCorrelation
    for (i <- a.columns.indices; j <- a.columns.indices)
      assertApprox(a(i, j), b(i, j), 1e-9, s"nullity($i,$j)")
  }

  test("missing spectra agree bucket by bucket") {
    val a = fast.missing.spectrum; val b = slow.missing.spectrum
    assert(a.columns == b.columns && a.buckets == b.buckets)
    for (bi <- a.buckets.indices; ci <- a.columns.indices)
      assertApprox(a.missingFraction(bi)(ci), b.missingFraction(bi)(ci), 1e-12,
        s"spectrum($bi)($ci)")
  }

  test("interaction grids agree cell by cell") {
    assert(fast.interactions.size == slow.interactions.size)
    fast.interactions.zip(slow.interactions).foreach { case (a, b) =>
      assert(a.xColumn == b.xColumn && a.yColumn == b.yColumn)
      assert(a.counts.map(_.toSeq).toSeq == b.counts.map(_.toSeq).toSeq)
    }
  }

  test("dendrogram merge structures agree") {
    assert(fast.missing.dendrogram.columns == slow.missing.dendrogram.columns)
    val am = fast.missing.dendrogram.merges.map(m => (m.distance, m.size))
    val bm = slow.missing.dendrogram.merges.map(m => (m.distance, m.size))
    am.zip(bm).foreach { case (a, b) =>
      assertApprox(a._1, b._1, 1e-12, "merge distance")
      assert(a._2 == b._2)
    }
  }
}
