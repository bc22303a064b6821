package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.{SparkSpec, TestHelpers}
import repro.baseline.ProfilingBaseline

/** The one-reduction missing overview against the eager baseline (both-missing
  * counts and bar counts exactly, spectra bucket by bucket, nullity
  * correlation to 1e-9) and its
  * spectrum against Spark's own `ntile` over the row order, on inputs that
  * stress the pattern reduction.
  */
class MissingPatternsSpec extends SparkSpec with TestHelpers {

  private val cfg = EdaConfig.default

  private def table(schema: StructType, rows: Seq[Seq[Any]], partitions: Int = 4): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromSeq), partitions), schema)

  private def fields(names: Seq[String], types: Int => DataType): StructType =
    StructType(names.zipWithIndex.map { case (n, i) => StructField(n, types(i), nullable = true) })

  private def assertSameAsBaseline(df: DataFrame): Missing.MissingOverviewIntermediates = {
    val fast = Missing.overview(df, cfg)
    val cols = df.columns.toSeq
    val eager = ProfilingBaseline.missing(df, cols, cfg.int("spectrum.bins"))
    assert(SparkStage.missing(df, cols, cfg.int("spectrum.bins")).both.map(_.toSeq).toSeq ==
      eager.both.map(_.toSeq).toSeq)
    val slow = Missing.assembleOverview(cols, eager, cfg)
    assert(fast.bar == slow.bar)
    val (a, b) = (fast.spectrum, slow.spectrum)
    assert(a.columns == b.columns && a.buckets == b.buckets)
    for (bi <- a.buckets.indices)
      assert(a.missingFraction(bi).toSeq == b.missingFraction(bi).toSeq, s"bucket $bi")
    val (na, nb) = (fast.nullityCorrelation, slow.nullityCorrelation)
    assert(na.columns == nb.columns)
    for (i <- na.columns.indices; j <- na.columns.indices)
      assertApprox(na(i, j), nb(i, j), 1e-9, s"nullity($i,$j)")
    assert(fast.dendrogram == slow.dendrogram)
    fast
  }

  /** The spectrum as `ntile` over a global window on the row order. */
  private def assertNtileSpectrum(df: DataFrame, sp: Intermediates.MissingSpectrum): Unit = {
    val w = Window.orderBy(col("__id"))
    val counts = df.withColumn("__id", monotonically_increasing_id())
      .withColumn("__b", ntile(cfg.int("spectrum.bins")).over(w))
      .groupBy("__b").agg(count(lit(1)), df.columns.map(c =>
        count(when(SparkStage.isMissing(df, c), 1))): _*)
      .orderBy("__b").collect()
    val sizes = counts.map(_.getLong(1)).toSeq
    assert(sp.buckets.map { case (lo, hi) => hi - lo + 1 } == sizes)
    counts.zipWithIndex.foreach { case (r, bi) =>
      assert(sp.missingFraction(bi).toSeq ==
        df.columns.indices.map(ci => r.getLong(ci + 2).toDouble / r.getLong(1)), s"bucket $bi")
    }
  }

  test("every row a distinct pattern: 12 columns, 4096 rows") {
    val names = (0 until 12).map(i => s"c$i")
    val schema = fields(names, i => if (i % 2 == 0) DoubleType else StringType)
    val rows = (0 until 4096).map(r => names.indices.map(c =>
      if ((r >> c & 1) == 1) null else if (c % 2 == 0) r.toDouble else s"v$r"))
    val df = table(schema, rows).cache()
    val ov = assertSameAsBaseline(df)
    assert(ov.bar.missingCounts == Seq.fill(12)(2048L))
    assertNtileSpectrum(df, ov.spectrum)
    // independent bits: every pair is missing together on a quarter of the rows
    assertApprox(ov.nullityCorrelation(0, 11), 0.0, 1e-12, "independent columns")
  }

  test("more than 64 columns: the mask spans two words") {
    val names = (0 until 70).map(i => s"c$i")
    val missingIn = Map(0 -> 2, 63 -> 3, 64 -> 2, 69 -> 5)
    val rows = (0 until 60).map(r => names.indices.map(c =>
      if (missingIn.get(c).exists(r % _ == 0)) null else r.toDouble))
    val df = table(fields(names, _ => DoubleType), rows).cache()
    val ov = assertSameAsBaseline(df)
    assert(ov.bar.missingCounts(63) == 20 && ov.bar.missingCounts(64) == 30)
    assert(ov.nullityCorrelation.columns == Seq("c0", "c63", "c64", "c69"))
    assertApprox(ov.nullityCorrelation(0, 2), 1.0, 1e-12, "c0 ~ c64")
  }

  test("fewer rows than spectrum buckets") {
    val rows = (0 until 5).map(r => Seq(if (r == 1) null else r.toDouble, if (r < 2) null else s"s$r"))
    val df = table(fields(Seq("x", "s"), i => if (i == 0) DoubleType else StringType), rows)
    val ov = assertSameAsBaseline(df)
    assert(ov.spectrum.buckets == (0L until 5L).map(i => (i, i)))
    assertNtileSpectrum(df, ov.spectrum)
  }

  test("empty table") {
    val df = table(fields(Seq("x", "s"), i => if (i == 0) DoubleType else StringType), Nil)
    val ov = assertSameAsBaseline(df)
    assert(ov.bar.totalRows == 0 && ov.bar.missingCounts == Seq(0L, 0L))
    assert(ov.spectrum.buckets.isEmpty)
  }

  test("NaN counts as missing in numeric columns") {
    val rows = (0 until 40).map(r => Seq(
      if (r % 4 == 0) Double.NaN else if (r % 4 == 1) null else r.toDouble,
      if (r % 2 == 0) Double.NaN else r.toDouble,
      if (r % 5 == 0) null else "v"))
    val df = table(fields(Seq("x", "y", "s"), i => if (i < 2) DoubleType else StringType), rows)
    val ov = assertSameAsBaseline(df)
    assert(ov.bar.missingCounts == Seq(20L, 20L, 8L))
  }

  test("uncached multi-partition input matches ntile over the row order") {
    val id = col("id")
    val df = spark.range(0, 5003, 1, 7).select(
      when(id % 3 === 0, lit(null)).otherwise(id).as("a"),
      when(id % 7 < 2, lit(null)).otherwise(id.cast("string")).as("b"),
      when(id > 4000, lit(Double.NaN)).otherwise(id.cast("double")).as("c"))
    val ov = assertSameAsBaseline(df)
    assertNtileSpectrum(df, ov.spectrum)
  }

  test("column names with a dot, a space or a backtick") {
    val names = Seq("a.b", "with space", "back`tick", "plain")
    val rows = (0 until 30).map(r => Seq(
      if (r % 2 == 0) null else r.toDouble, if (r % 3 == 0) null else "v",
      if (r % 2 == 0) null else r.toDouble, r.toDouble))
    val df = table(fields(names, i => if (i == 1) StringType else DoubleType), rows)
    val ov = assertSameAsBaseline(df)
    assert(ov.bar.missingCounts == Seq(15L, 10L, 15L, 0L))
    assertApprox(ov.nullityCorrelation(0, 2), 1.0, 1e-12, "a.b ~ back`tick")
    assert(Eda.plotMissing(df).tabs.nonEmpty)
  }
}
