package repro.core

import org.apache.spark.sql.DataFrame

import repro.{JobCounting, SparkSpec}

class EdaConfigSpec extends SparkSpec with JobCounting {

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
    EdaConfig.registry.foreach { case (k, EdaConfig.Entry(_, desc, _, _)) =>
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

  // ---- generated from the registry, so that every key is covered --------

  /** Values of the entry's type that lie outside its range: below `lo`, above
    * a finite `hi`; for `corr.methods`, a duplicated method.
    */
  private def outOfRange(e: EdaConfig.Entry): Seq[Any] = e.default match {
    case _: Int    => Seq((e.lo - 1).toInt) ++ Option.when(!e.hi.isInfinite)((e.hi + 1).toInt)
    case _: Long   => Seq((e.lo - 1).toLong) ++ Option.when(!e.hi.isInfinite)((e.hi + 1).toLong)
    case _: Double => Seq(e.lo - 0.5) ++ Option.when(!e.hi.isInfinite)(e.hi + 0.5)
    case _         => Seq(Seq("pearson", "pearson"))
  }

  /** Every form of the entry's default that an override may take, with the value read back. */
  private def accepted(e: EdaConfig.Entry): Seq[(Any, Any)] = e.default match {
    case i: Int    => Seq[Any](i, i.toLong, i.toDouble).map(_ -> i)
    case l: Long   => Seq[Any](l.toInt, l, l.toDouble).map(_ -> l)
    case d: Double => (Seq[Any](d) ++ Option.when(d.isWhole)(d.toInt)).map(_ -> d)
    case ms        => Seq(ms -> ms, List("kendall", "pearson") -> Seq("kendall", "pearson"), Nil -> Nil)
  }

  private def read(cfg: EdaConfig, k: String): Any = EdaConfig.registry(k).default match {
    case _: Int    => cfg.int(k)
    case _: Long   => cfg.long(k)
    case _: Double => cfg.double(k)
    case _         => cfg.strings(k)
  }

  private lazy val df: DataFrame = spark.range(20).selectExpr("id AS x", "id * 2 AS y", "CAST(id % 3 AS STRING) AS g")

  /** Each task entry point with `config`; a rejected config starts no Spark job. */
  private def tasks(config: Map[String, Any]): Seq[(String, () => Any)] = Seq(
    "createReport" -> (() => Eda.createReport(df, config)),
    "plot" -> (() => Eda.plot(df, config = config)),
    "plot(x)" -> (() => Eda.plot(df, "x", config = config)),
    "plotCorrelation" -> (() => Eda.plotCorrelation(df, config = config)),
    "plotCorrelation(x, y)" -> (() => Eda.plotCorrelation(df, "x", "y", config = config)),
    "plotMissing" -> (() => Eda.plotMissing(df, config = config)),
    "plotMissing(x)" -> (() => Eda.plotMissing(df, "x", config = config)))

  private def assertRejectedAtBoundary(k: String, v: Any): Unit = {
    val e = intercept[IllegalArgumentException](EdaConfig.from(Map(k -> v)))
    assert(e.getMessage.contains(k), e.getMessage)
    tasks(Map(k -> v)).foreach { case (task, run) =>
      val (err, jobs) = withJobs(intercept[IllegalArgumentException](run()))
      assert(err.getMessage.contains(k), s"$task: ${err.getMessage}")
      assert(jobs == 0, s"$task started $jobs Spark jobs before rejecting $k -> $v")
    }
  }

  EdaConfig.registry.toSeq.sortBy(_._1).foreach { case (k, e) =>
    test(s"registry $k: out-of-range and String values are rejected before any Spark job") {
      (outOfRange(e) :+ e.default.toString).foreach(assertRejectedAtBoundary(k, _))
    }
    test(s"registry $k: its default is accepted in every form and reads the same") {
      accepted(e).foreach { case (given, expected) =>
        assert(read(EdaConfig.from(Map(k -> given)), k) == expected, s"$k -> $given")
      }
    }
  }

  // ---- values the Config Manager once accepted, or rejected only mid-task --

  test("a String report.interactions or corr.maxcols is rejected before any Spark job") {
    assertRejectedAtBoundary("report.interactions", "5")
    assertRejectedAtBoundary("corr.maxcols", "5")
  }
  test("a negative corr.maxcols or report.interactions is rejected; zero is allowed") {
    assertRejectedAtBoundary("corr.maxcols", -1)
    assertRejectedAtBoundary("report.interactions", -1)
    val zero = EdaConfig.from(Map("corr.maxcols" -> 0, "report.interactions" -> 0))
    assert(zero.int("corr.maxcols") == 0 && zero.int("report.interactions") == 0)
  }
  test("duplicated corr.methods are rejected, naming the key and the value") {
    val e = intercept[IllegalArgumentException](EdaConfig.from(Map("corr.methods" -> Seq("pearson", "pearson"))))
    assert(e.getMessage.contains("corr.methods") && e.getMessage.contains("List(pearson, pearson)"), e.getMessage)
  }
  test("a whole Double is accepted by a Long key as by an Int key") {
    assert(EdaConfig.from(Map("hist.bins" -> 50.0)).int("hist.bins") == 50)
    assert(EdaConfig.from(Map("corr.maxrows" -> 1e5)).long("corr.maxrows") == 100000L)
  }
  test("a Long beyond Int range is rejected by an Int key, not wrapped") {
    for (v <- Seq(Int.MaxValue + 1L, Int.MinValue - 1L, 1e10)) {
      val e = intercept[IllegalArgumentException](EdaConfig.from(Map("hist.bins" -> v)))
      assert(e.getMessage.contains("hist.bins") && e.getMessage.contains("expected an Int"), e.getMessage)
    }
    assert(EdaConfig.from(Map("hist.bins" -> Int.MaxValue.toLong)).int("hist.bins") == Int.MaxValue)
  }
  test("a rejected value is shown with its kind and range") {
    val e = intercept[IllegalArgumentException](EdaConfig.from(Map("insight.missing.threshold" -> 1.5)))
    assert(e.getMessage == "config insight.missing.threshold: expected a number in [0, 1], got 1.5")
    val s = intercept[IllegalArgumentException](EdaConfig.from(Map("hist.bins" -> "50")))
    assert(s.getMessage == "config hist.bins: expected an Int, got \"50\"")
  }
}
