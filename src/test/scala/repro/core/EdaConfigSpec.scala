package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EdaConfigSpec extends AnyFunSuite {

  test("defaults carry every registered key") {
    assert(EdaConfig.defaults.keySet == EdaConfig.registry.keySet)
  }
  test("default hist.bins is 50 (Figure 1's default)") {
    assert(EdaConfig.default.int("hist.bins") == 50)
  }
  test("user override wins over default") {
    val cfg = EdaConfig.from(Map("hist.bins" -> 200))
    assert(cfg.int("hist.bins") == 200)
    assert(cfg.int("bar.topk") == 10) // untouched default
  }
  test("unknown key is rejected with the known-keys list") {
    val e = intercept[IllegalArgumentException](EdaConfig.from(Map("hist.bin" -> 10)))
    assert(e.getMessage.contains("hist.bin"))
    assert(e.getMessage.contains("hist.bins"))
  }
  test("int accessor accepts Int and Long") {
    assert(EdaConfig.from(Map("hist.bins" -> 25L)).int("hist.bins") == 25)
  }
  test("int accessor rejects non-integral values") {
    intercept[IllegalArgumentException](
      EdaConfig.from(Map("hist.bins" -> 1.5)).int("hist.bins"))
  }
  test("double accessor accepts Int") {
    assert(EdaConfig.from(Map("insight.skew.threshold" -> 2)).double("insight.skew.threshold") == 2.0)
  }
  test("long accessor") {
    assert(EdaConfig.default.long("corr.maxrows") == 200000L)
  }
  test("strings accessor reads corr.methods") {
    assert(EdaConfig.default.strings("corr.methods") == Seq("pearson", "spearman", "kendall"))
  }
  test("strings accessor allows overriding the method list") {
    val cfg = EdaConfig.from(Map("corr.methods" -> Seq("pearson")))
    assert(cfg.strings("corr.methods") == Seq("pearson"))
  }
  test("how-to guide lists keys by prefix with current values") {
    val cfg = EdaConfig.from(Map("hist.bins" -> 75))
    val ht = EdaConfig.howTo(Seq("hist.bins"), cfg)
    assert(ht.size == 1)
    assert(ht.head.contains("\"hist.bins\": 75"))
    assert(ht.head.contains("number of bins"))
  }
  test("how-to guide with multiple prefixes is sorted by key") {
    val ht = EdaConfig.howTo(Seq("grid2d"), EdaConfig.default)
    assert(ht.size == 2 && ht.head.contains("grid2d.xbins") || ht.head.contains("grid2d.x"))
    assert(ht == ht.sorted)
  }
  test("every registry entry has a nonempty description") {
    EdaConfig.registry.foreach { case (k, (_, desc)) =>
      assert(desc.nonEmpty, s"missing description for $k")
    }
  }
  test("non-positive counts are rejected, naming the key") {
    for ((k, v) <- Seq("hist.bins" -> -3, "spectrum.bins" -> 0, "grid2d.xbins" -> 0,
                       "grid2d.ybins" -> -1, "box.bins" -> 0, "bar.topk" -> 0,
                       "wordfreq.topk" -> -5, "nc.topk" -> 0, "cc.topk" -> 0)) {
      val e = intercept[IllegalArgumentException](EdaConfig.from(Map(k -> v)))
      assert(e.getMessage.contains(k), e.getMessage)
    }
  }
  test("a non-positive corr.maxrows is rejected, naming the key") {
    for (v <- Seq(0L, -5L)) {
      val e = intercept[IllegalArgumentException](EdaConfig.from(Map("corr.maxrows" -> v)))
      assert(e.getMessage.contains("corr.maxrows"), e.getMessage)
    }
  }
  test("a negative scatter.sample is rejected, naming the key; zero is allowed") {
    val e = intercept[IllegalArgumentException](EdaConfig.from(Map("scatter.sample" -> -1)))
    assert(e.getMessage.contains("scatter.sample"), e.getMessage)
    assert(EdaConfig.from(Map("scatter.sample" -> 0)).int("scatter.sample") == 0)
  }
  test("a non-positive freq.maxdistinct is rejected, naming the key") {
    for (v <- Seq(0, -2)) {
      val e = intercept[IllegalArgumentException](EdaConfig.from(Map("freq.maxdistinct" -> v)))
      assert(e.getMessage.contains("freq.maxdistinct"), e.getMessage)
    }
  }

  // one out-of-range value per key: counts must be positive, thresholds in range
  Seq("hist.gridpoints" -> 0, "qq.points" -> -1,
      "insight.missing.threshold" -> 1.5, "insight.cardinality.threshold" -> -1,
      "insight.skew.threshold" -> -0.5, "insight.uniform.entropy" -> 1.01,
      "insight.zeros.threshold" -> -0.1, "insight.outlier.threshold" -> 2,
      "insight.normal.skew" -> -1, "insight.normal.kurtosis" -> Double.NaN,
      "insight.similarity.threshold" -> 2.5, "insight.correlation.threshold" -> 1.2,
  ).foreach { case (k, v) =>
    test(s"$k = $v is rejected, naming the key") {
      val e = intercept[IllegalArgumentException](EdaConfig.from(Map(k -> v)))
      assert(e.getMessage.contains(k), e.getMessage)
    }
  }

  test("unknown correlation methods are rejected, naming the key and the value") {
    val e = intercept[IllegalArgumentException](
      EdaConfig.from(Map("corr.methods" -> Seq("pearson", "spearmann"))))
    assert(e.getMessage.contains("corr.methods") && e.getMessage.contains("spearmann"))
  }
}
