package repro.data

import repro.{SparkSpec, SynthData, TestHelpers}
import repro.core.TypeDetector

/** Synthetic Kaggle-shaped workload generators. */
class EdaDataSpec extends SparkSpec with TestHelpers {

  test("table2 carries the paper's 15 datasets with their reported timings") {
    assert(EdaData.table2.size == 15)
    val hotel = EdaData.table2.find(_.name == "hotel").get
    assert(hotel.rows == 119000 && hotel.nNumeric == 20 && hotel.nCategorical == 12)
    assert(hotel.paperPandasProfilingSec == 83.2 && hotel.paperDataPrepSec == 13.0)
    // speedups from the paper are all within 4x..21x
    EdaData.table2.foreach { s =>
      assert(s.paperSpeedup >= 4.0 && s.paperSpeedup <= 21.0, s.name)
    }
  }

  test("dataset produces the requested shape") {
    val df = EdaData.dataset(spark, 123, 4, 3)
    assert(df.count() == 123)
    assert(TypeDetector.numericColumns(df) == (0 until 4).map(i => s"num_$i"))
    assert(TypeDetector.categoricalColumns(df) == (0 until 3).map(i => s"cat_$i"))
  }

  test("dataset is deterministic in (spec, seed)") {
    val a = EdaData.dataset(spark, 100, 2, 1, seed = 9).collect().map(_.toString).sorted
    val b = EdaData.dataset(spark, 100, 2, 1, seed = 9).collect().map(_.toString).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different data") {
    val a = EdaData.dataset(spark, 100, 2, 0, seed = 1).collect().map(_.toString).sorted
    val b = EdaData.dataset(spark, 100, 2, 0, seed = 2).collect().map(_.toString).sorted
    assert(a.toSeq != b.toSeq)
  }

  test("every third column carries missing values") {
    val df = EdaData.dataset(spark, 2000, 4, 0).cache()
    val nulls = (0 until 4).map { i =>
      df.filter(df.col(s"num_$i").isNull).count()
    }
    assert(nulls(0) > 0 && nulls(3) > 0) // i % 3 == 0
    assert(nulls(1) == 0 && nulls(2) == 0)
    // injected fractions stay modest (< 20%)
    assert(nulls(0) < 400)
  }

  test("numeric columns mix distribution families") {
    val df = EdaData.dataset(spark, 5000, 5, 0, seed = 4).cache()
    val stats = repro.core.SparkStage.numericStats(df, (0 until 5).map(i => s"num_$i"))
    val skews = (0 until 5).map(i => stats(s"num_$i").skewness)
    assert(math.abs(skews(0)) < 0.5)  // normal-ish
    assert(skews(2) > 1.0)            // lognormal
    assert(skews(3) > 1.0)            // power-skewed
  }

  test("categorical cardinalities cycle as documented") {
    val df = EdaData.dataset(spark, 5000, 0, 5, seed = 4).cache()
    val stats = repro.core.SparkStage.categoricalStats(df, (0 until 5).map(i => s"cat_$i"))
    val d = (0 until 5).map(i => stats(s"cat_$i").distinct)
    assert(d(0) <= 2 && d(1) <= 5 && d(2) <= 12 && d(3) <= 30 && d(4) <= 120)
    assert(d(4) > 30) // actually exercises the high-cardinality regime
  }

  test("category labels are namespaced per column") {
    val df = EdaData.dataset(spark, 50, 0, 2)
    val v0 = df.select("cat_0").collect().flatMap(r => Option(r.getString(0))).head
    assert(v0.startsWith("v0_"))
  }

  test("table2 dataset helper matches the spec shape") {
    val spec = EdaData.table2.find(_.name == "titanic").get
    val df = EdaData.dataset(spark, spec)
    assert(df.count() == 891)
    assert(TypeDetector.numericColumns(df).size == 7)
    assert(TypeDetector.categoricalColumns(df).size == 5)
  }

  test("bitcoinLike has 8 numeric OHLCV-shaped columns") {
    val df = SynthData.bitcoinLike(spark, 1000)
    assert(df.columns.toSeq == Seq("timestamp", "open", "high", "low", "close",
      "volume_btc", "volume_usd", "weighted_price"))
    assert(TypeDetector.numericColumns(df).size == 8)
    assert(df.count() == 1000)
  }

  test("bitcoinLike high >= open >= low (generator invariant)") {
    val rows = SynthData.bitcoinLike(spark, 500).collect()
    rows.foreach { r =>
      val open = r.getDouble(1); val high = r.getDouble(2); val low = r.getDouble(3)
      assert(high >= open - 1e-9 && low <= open + 1e-9)
    }
  }
}
