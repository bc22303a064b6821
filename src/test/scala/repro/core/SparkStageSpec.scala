package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, TestHelpers}
import repro.core.Intermediates.{CategoricalStats, NumericStats}
import repro.stats.{LocalStats, References}

/** Distributed-stage reductions, oracle-checked against DuckDB. */
class SparkStageSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  /** Mixed fixture with nulls and a duplicate row. */
  private lazy val df: DataFrame = Seq(
    (Option(1.0), Option("a")),
    (Option(2.0), Option("b")),
    (Option(2.0), Option("b")), // duplicate row
    (None: Option[Double], Option("a")),
    (Option(-4.0), None: Option[String]),
    (Option(0.0), Option("ccc")),
    (Option(10.5), Option("a")),
  ).toDF("x", "s").cache()

  private lazy val xs = SparkStage.numericStats(df, Seq("x"))("x")
  private lazy val ss = SparkStage.frequencies(df, Seq("s"), 10)("s").stats
  private lazy val counts = SparkStage.tableCounts(df)

  /** Pass-1 stats of numeric columns of `d`, the literals of the binned reductions. */
  private def statsOf(d: DataFrame, cols: String*): Seq[NumericStats] =
    cols.map(SparkStage.numericStats(d, cols))

  // Pass 1, the column aggregates: numericStats and tableCounts.

  test("columnAggregates: count and missing match DuckDB") {
    val got = Seq((xs.count, xs.missing)).toDF("cnt", "mis")
    Oracle.assertEquivalent(got,
      "SELECT count(x) AS cnt, count(*) - count(x) AS mis FROM t", "t" -> df)
  }

  test("columnAggregates: mean, min, max match DuckDB") {
    val got = Seq((xs.mean, xs.min, xs.max)).toDF("m", "mn", "mx")
    Oracle.assertEquivalent(got,
      "SELECT avg(CAST(x AS DOUBLE)) AS m, min(CAST(x AS DOUBLE)) AS mn, " +
      "max(CAST(x AS DOUBLE)) AS mx FROM t", "t" -> df)
  }

  test("columnAggregates: sum and distinct match DuckDB") {
    val got = Seq((xs.sum, xs.distinct)).toDF("sm", "d")
    Oracle.assertEquivalent(got,
      "SELECT sum(CAST(x AS DOUBLE)) AS sm, count(DISTINCT x) AS d FROM t", "t" -> df)
  }

  test("columnAggregates: stddev matches DuckDB sample stddev") {
    val got = Seq(Tuple1(xs.std)).toDF("sd")
    Oracle.assertEquivalent(got,
      "SELECT stddev_samp(CAST(x AS DOUBLE)) AS sd FROM t", "t" -> df)
  }

  test("columnAggregates: zeros and negatives counted") {
    assert(xs.zeros == 1 && xs.negatives == 1)
  }

  test("tableCounts: row count and duplicate rows") {
    assert(counts == ((7L, 1L)))
  }

  test("tableCounts: duplicate rows match DuckDB distinct") {
    val got = Seq(counts).toDF("r", "dup")
    Oracle.assertEquivalent(got,
      "SELECT (SELECT count(*) FROM t) AS r, " +
      "(SELECT count(*) FROM t) - (SELECT count(*) FROM (SELECT DISTINCT x, s FROM t) q) AS dup",
      "t" -> df)
  }

  test("columnAggregates: skewness matches local population formula") {
    val vals = collectDoubles(df, "x")
    assertApprox(xs.skewness, References.skewness(vals), 1e-6, "skewness")
  }

  test("columnAggregates: median from the percentile grid is exact on odd data") {
    val odd = Seq(5.0, 1.0, 3.0, 9.0, 7.0).toDF("x")
    val s = SparkStage.numericStats(odd, Seq("x"))("x")
    assert(s.median == 5.0)
    assert(s.percentiles.head == 1.0 && s.percentiles.last == 9.0)
  }

  test("columnAggregates: quantile grid is monotone") {
    assert(xs.percentiles.sliding(2).forall(p => p(0) <= p(1)))
  }

  test("frequencies: categorical count/missing/distinct match DuckDB") {
    val got = Seq((ss.count, ss.missing, ss.distinct)).toDF("cnt", "mis", "d")
    Oracle.assertEquivalent(got,
      "SELECT count(s) AS cnt, count(*) - count(s) AS mis, count(DISTINCT s) AS d FROM t",
      "t" -> df)
  }

  test("frequencies: string length stats match DuckDB") {
    val got = Seq((ss.minLength, ss.maxLength, ss.avgLength)).toDF("mn", "mx", "av")
    Oracle.assertEquivalent(got,
      "SELECT min(length(s)) AS mn, max(length(s)) AS mx, avg(length(s)) AS av FROM t",
      "t" -> df)
  }

  test("columnAggregates: NaN counts as missing, infinity counted separately") {
    val special = Seq(1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 5.0).toDF("x")
    val s = SparkStage.numericStats(special, Seq("x"))("x")
    assert(s.count == 2)       // finite values only
    assert(s.missing == 1)     // the NaN
    assert(s.infinites == 2)
    assert(s.total == 5)
    assert(s.mean == 3.0)      // moments over finite values
    assert(s.min == 1.0 && s.max == 5.0)
  }

  test("columnAggregates: empty DataFrame") {
    val empty = Seq.empty[Double].toDF("x")
    assert(SparkStage.tableCounts(empty) == ((0L, 0L)))
    val s = SparkStage.numericStats(empty, Seq("x"))("x")
    assert(s.count == 0 && s.missing == 0 && s.mean.isNaN && s.percentiles.isEmpty)
  }

  test("columnAggregates: rows equal df.count() whichever columns are listed") {
    val schema = StructType(Seq(StructField("i", IntegerType), StructField("d", DecimalType(10, 2)),
      StructField("x", DoubleType), StructField("dead", DoubleType), StructField("s", StringType)))
    def dec(v: String) = new java.math.BigDecimal(v)
    val t = spark.createDataFrame(java.util.Arrays.asList(
      Row(1, dec("1.50"), Double.NaN, null, "a"),
      Row(null, null, Double.PositiveInfinity, null, null),
      Row(3, dec("-2.25"), Double.NegativeInfinity, null, "b"),
      Row(3, dec("-2.25"), Double.NegativeInfinity, null, "b"),
      Row(null, dec("0.00"), 4.0, null, null)), schema)
    val empty = t.where(lit(false))
    val lists = Seq((Seq("x", "i"), Nil), (Seq("dead"), Nil), (Seq("d"), Nil), (Nil, Seq("s")),
      (Seq("dead", "x"), Seq("s")), (Seq("i", "d"), Seq("s")), (Nil, Nil))
    for (d <- Seq(t, empty)) assert(SparkStage.tableCounts(d)._1 == d.count())
    for (d <- Seq(t, empty); (num, cat) <- lists) {
      val totals = SparkStage.numericStats(d, num).values.map(_.total) ++
        SparkStage.frequencies(d, cat, 10).values.map(_.stats.total)
      assert(totals.forall(_ == d.count()), (num, cat))
    }
    assert(SparkStage.tableCounts(spark.range(5).select()) == ((5L, 0L)))
    val noColumns = Overview.compute(spark.range(5).select(), EdaConfig.default).dataset
    assert(noColumns.rows == 5 && noColumns.duplicateRows == 0)
  }

  test("columnAggregates: single-row DataFrame") {
    val one = Seq(42.0).toDF("x")
    val s = SparkStage.numericStats(one, Seq("x"))("x")
    assert(s.count == 1 && s.mean == 42.0 && s.min == 42.0 && s.max == 42.0)
    assert(s.std.isNaN) // sample stddev of one value
  }

  // ---------------------------------------------------------------------

  test("histograms: bin counts match DuckDB") {
    val bins = 5
    val h = SparkStage.histograms(df, Seq(xs), bins)("x").histogram
    val width = (xs.max - xs.min) / bins
    val got = h.counts.zipWithIndex.collect { case (c, b) if c > 0 => (b, c) }
      .toSeq.toDF("bin", "cnt")
    Oracle.assertEquivalent(got,
      s"SELECT LEAST(${bins - 1}, GREATEST(0, CAST(FLOOR((CAST(x AS DOUBLE) - (${xs.min})) / ($width)) AS INT))) AS bin, " +
      "count(*) AS cnt FROM t WHERE x IS NOT NULL GROUP BY 1", "t" -> df)
  }

  test("histograms: total equals non-null count and edges span min/max") {
    val h = SparkStage.histograms(df, Seq(xs), 7)("x").histogram
    assert(h.total == xs.count)
    assert(h.edges.head == xs.min)
    assertApprox(h.edges.last, xs.max, 1e-9, "last edge")
    assert(h.edges.length == 8 && h.counts.length == 7)
  }

  test("histograms: several columns in one call") {
    val two = Seq((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)).toDF("a", "b")
    val hs = SparkStage.histograms(two, statsOf(two, "a", "b"), 2)
    assert(hs("a").histogram.counts.toSeq == Seq(1L, 2L)) // [1,2): {1}, [2,3]: {2,3}
    assert(hs("b").histogram.counts.toSeq == Seq(1L, 2L))
  }

  test("histograms: constant column lands in bin 0") {
    val const = Seq(5.0, 5.0, 5.0).toDF("x")
    val h = SparkStage.histograms(const, statsOf(const, "x"), 4)("x").histogram
    assert(h.counts.toSeq == Seq(3L, 0L, 0L, 0L))
  }

  test("histograms: before = full histogram, after = kept rows only") {
    val d2 = Seq(
      (Option(1.0), Option(10.0)), (Option(2.0), None),
      (Option(3.0), Option(30.0)), (Option(4.0), None),
    ).toDF("v", "flag")
    val keep = org.apache.spark.sql.functions.col("flag").isNotNull
    val h = SparkStage.histograms(d2, statsOf(d2, "v"), 3, keep)("v").impact
    assert(h.before.sum == 4 && h.after.sum == 2)
    assert(h.before.zip(h.after).forall { case (b, a) => b >= a })
  }

  // ---------------------------------------------------------------------

  test("frequencies: counts match DuckDB") {
    val f = SparkStage.frequencies(df, Seq("s"), 100)("s").frequencies.topK
    val got = f.toDF("v", "cnt")
    Oracle.assertEquivalent(got,
      "SELECT s AS v, count(*) AS cnt FROM t WHERE s IS NOT NULL GROUP BY s", "t" -> df)
  }

  test("frequencies: ordered most-frequent-first and capped") {
    val f = SparkStage.frequencies(df, Seq("s"), 2)("s").frequencies.topK
    assert(f.size == 2)
    assert(f.head == ("a", 3L))
  }

  test("frequencies: several columns in one call") {
    val two = Seq(("x", "p"), ("x", "q"), ("y", "q")).toDF("c1", "c2")
    val fs = SparkStage.frequencies(two, Seq("c1", "c2"), 10).map { case (c, f) => c -> f.frequencies.topK }
    assert(fs("c1").toMap == Map("x" -> 2L, "y" -> 1L))
    assert(fs("c2").toMap == Map("p" -> 1L, "q" -> 2L))
  }

  test("frequencies: before/after counts") {
    val d2 = Seq(
      (Option("a"), Option(1.0)), (Option("a"), None),
      (Option("b"), Option(2.0)),
    ).toDF("c", "flag")
    val keep = org.apache.spark.sql.functions.col("flag").isNotNull
    val f = SparkStage.frequencies(d2, Seq("c"), 10, keep)("c").top
    assert(f.toSet == Set(("a", 2L, 1L), ("b", 1L, 1L)))
  }

  /** Four values of lengths 1 to 4 and the null value, the most frequent of all. */
  private lazy val nullHeavy = Seq(Some("bb"), None, Some("a"), Some("bb"), None, Some("cccc"),
    Some("a"), None, Some("ddd"), Some("bb"), None).toDF("s")

  test("frequencies: with topK = 1 the statistics of every value match DuckDB") {
    val f = SparkStage.frequencies(nullHeavy, Seq("s"), 1)("s")
    assert(f.top == Seq(("bb", 3L, 3L)))
    val s = f.stats
    Oracle.assertEquivalent(Seq((s.count, s.missing, s.distinct, s.minLength, s.maxLength, s.avgLength))
        .toDF("cnt", "mis", "d", "mn", "mx", "av"),
      "SELECT count(s) AS cnt, count(*) - count(s) AS mis, count(DISTINCT s) AS d, " +
      "min(length(s)) AS mn, max(length(s)) AS mx, avg(length(s)) AS av FROM t", "t" -> nullHeavy)
  }

  test("frequencies: an all-null column and an empty table have no values and no lengths") {
    val allNull = Seq[Option[String]](None, None, None).toDF("s")
    for ((d, missing) <- Seq(allNull -> 3L, allNull.where(lit(false)) -> 0L)) {
      val f = SparkStage.frequencies(d, Seq("s"), 10)("s")
      assert(f.top.isEmpty)
      assert(f.stats.copy(avgLength = 0) == CategoricalStats("s", 0, missing, 0, 0, 0, 0))
      assert(f.stats.avgLength.isNaN)
    }
  }

  test("wordFrequencies: tokenizes, lowercases, counts") {
    val d = Seq("Hello world", "hello there; world!", "WORLD").toDF("txt")
    val w = SparkStage.wordFrequencies(d, "txt", 10)
    assert(w.topK.head == ("world", 3L))
    assert(w.topK.toMap == Map("world" -> 3L, "hello" -> 2L, "there" -> 1L))
    assert(w.totalWords == 6)
  }

  test("wordFrequencies: totalWords counts every word, not only the most frequent") {
    val d = ((1 to 1500).map(i => s"once$i") ++ Seq.fill(1500)("often")).toDF("txt")
    val w = SparkStage.wordFrequencies(d, "txt", 10)
    assert(w.topK.head == ("often", 1500L) && w.topK.size == 10)
    assert(w.totalWords == 3000)
    val empty = SparkStage.wordFrequencies(d.where(lit(false)), "txt", 10)
    assert(empty.topK.isEmpty && empty.totalWords == 0)
  }

  // ---------------------------------------------------------------------

  test("pairMoments: pearson matches DuckDB corr") {
    val d2 = Seq((1.0, 2.1), (2.0, 3.9), (3.0, 6.2), (4.0, 8.1), (5.0, 9.7)).toDF("x", "y")
    val m = SparkStage.pairMoments(d2, "x", "y")
    val got = Seq(Tuple1(m.pearson)).toDF("r")
    Oracle.assertEquivalent(got,
      "SELECT corr(CAST(x AS DOUBLE), CAST(y AS DOUBLE)) AS r FROM t", "t" -> d2)
  }

  test("pairMoments: pairwise-complete deletion on nulls") {
    val d2 = Seq(
      (Option(1.0), Option(1.0)), (Option(2.0), None),
      (None: Option[Double], Option(3.0)), (Option(4.0), Option(4.0)),
      (Option(5.0), Option(6.0)),
    ).toDF("x", "y")
    val m = SparkStage.pairMoments(d2, "x", "y")
    assert(m.n == 3) // rows where both present
    assertApprox(m.pearson,
      LocalStats.pearsonArrays(Array(1.0, 4.0, 5.0), Array(1.0, 4.0, 6.0)), 1e-9, "pairwise pearson")
  }

  test("collectNumericMatrix: column-major values with NaN for null") {
    val d = Seq((Option(1.0), Option(2.0)), (None: Option[Double], Option(4.0))).toDF("a", "b")
    val m = SparkStage.collectNumericMatrix(d, Seq("a", "b"), 2, 100)
    assert(m.length == 2 && m(0).length == 2)
    val aVals = m(0).toSeq
    assert(aVals.count(_.isNaN) == 1 && aVals.contains(1.0))
    assert(m(1).sorted.toSeq == Seq(2.0, 4.0))
  }

  test("collectNumericMatrix: sampling bounds the row count") {
    val d = spark.range(10000).selectExpr("cast(id as double) as x")
    val m = SparkStage.collectNumericMatrix(d, Seq("x"), 10000, 1000)
    assert(m(0).length < 3000) // fraction-based sample, loose upper bound
    assert(m(0).length > 200)
  }

  // ---------------------------------------------------------------------

  test("missing: per-column missing totals match the bar counts") {
    val sp = SparkStage.missing(df, Seq("x", "s"), 3).spectrum
    val missX = sp.buckets.indices.map(b =>
      sp.missingFraction(b)(0) * (sp.buckets(b)._2 - sp.buckets(b)._1 + 1)).sum
    val missS = sp.buckets.indices.map(b =>
      sp.missingFraction(b)(1) * (sp.buckets(b)._2 - sp.buckets(b)._1 + 1)).sum
    assertApprox(missX, 1.0, 1e-9, "x missing")
    assertApprox(missS, 1.0, 1e-9, "s missing")
  }

  test("missing: buckets partition the rows") {
    val sp = SparkStage.missing(df, Seq("x"), 3).spectrum
    assert(sp.buckets.head._1 == 0)
    assert(sp.buckets.last._2 == 6)
    assert(sp.buckets.sliding(2).forall(p => p(0)._2 + 1 == p(1)._1))
  }

  test("missing: disagreement counts recoverable from sums") {
    val d = Seq(
      (Option(1.0), Option("a")), (None: Option[Double], Option("b")),
      (None: Option[Double], None: Option[String]), (Option(2.0), Option("c")),
    ).toDF("x", "s")
    val both = SparkStage.missing(d, Seq("x", "s"), 3).both
    val (sx, sy, sxy) = (both(0)(0), both(1)(1), both(0)(1))
    // indicators: x = (0,1,1,0), s = (0,0,1,0) -> disagreements = 1
    assert(sx == 2L && sy == 1L && sxy == 1L)
    assert(sx + sy - 2 * sxy == 1L)
  }

  // ---------------------------------------------------------------------

  test("grids: total count equals pairwise-complete rows") {
    val d2 = Seq((Option(1.0), Option(1.0)), (Option(2.0), None),
      (Option(3.0), Option(2.0))).toDF("x", "y")
    val Seq(xs2, ys2) = statsOf(d2, "x", "y")
    val Seq(g) = SparkStage.grids(d2, Seq((xs2, ys2)), 4, 4)
    assert(g.counts.map(_.sum).sum == 2)
    assert(g.xEdges.length == 5 && g.yEdges.length == 5)
  }

  test("grids: counts match DuckDB cross-binning") {
    val d2 = (1 to 50).map(i => (i.toDouble, (i * 7 % 13).toDouble)).toDF("x", "y")
    val Seq(xs2, ys2) = statsOf(d2, "x", "y")
    val Seq(g) = SparkStage.grids(d2, Seq((xs2, ys2)), 5, 5)
    val got = (for (i <- 0 until 5; j <- 0 until 5 if g.counts(i)(j) > 0)
      yield (i, j, g.counts(i)(j))).toDF("xb", "yb", "cnt")
    val xw = (50.0 - 1.0) / 5; val yw = 12.0 / 5
    Oracle.assertEquivalent(got,
      s"SELECT LEAST(4, GREATEST(0, CAST(FLOOR((CAST(x AS DOUBLE) - 1.0) / $xw) AS INT))) AS xb, " +
      s"LEAST(4, GREATEST(0, CAST(FLOOR((CAST(y AS DOUBLE) - 0.0) / $yw) AS INT))) AS yb, " +
      "count(*) AS cnt FROM t GROUP BY 1, 2", "t" -> d2)
  }

  test("grids: three pairs sharing a column each count only their own complete rows (DuckDB)") {
    val d3 = (0 until 60).map { i =>
      (if (i % 3 == 0) None else Option(i.toDouble),
       if (i % 4 == 1) None else Option((i * 7 % 11).toDouble),
       if (i % 5 == 2) None else Option((i % 9 - 4).toDouble))
    }.toDF("x", "y", "z")
    val stats = statsOf(d3, "x", "y", "z").map(s => s.name -> s).toMap
    val pairs = Seq(("x", "y"), ("x", "z"), ("y", "z"))
    val grids = SparkStage.grids(d3, pairs.map { case (a, b) => (stats(a), stats(b)) }, 4, 3)
    assert(grids.map(g => (g.xColumn, g.yColumn)) == pairs)
    pairs.zip(grids).foreach { case ((a, b), g) =>
      val got = (for (i <- 0 until 4; j <- 0 until 3 if g.counts(i)(j) > 0)
        yield (i, j, g.counts(i)(j))).toDF("xb", "yb", "cnt")
      // bins from the column's min and max over all rows, as in pass 1
      def bin(c: String, n: Int): String = {
        val (lo, hi) = (s"(SELECT min(CAST($c AS DOUBLE)) FROM t)", s"(SELECT max(CAST($c AS DOUBLE)) FROM t)")
        s"LEAST(${n - 1}, GREATEST(0, CAST(FLOOR((CAST($c AS DOUBLE) - $lo) / (($hi - $lo) / $n)) AS INT)))"
      }
      Oracle.assertEquivalent(got,
        s"SELECT ${bin(a, 4)} AS xb, ${bin(b, 3)} AS yb, count(*) AS cnt FROM t " +
        s"WHERE $a IS NOT NULL AND $b IS NOT NULL GROUP BY 1, 2", "t" -> d3)
    }
  }

  test("groupedFiveNumbers: per-bin counts sum to pairwise-complete rows") {
    val d2 = (1 to 40).map(i => (i.toDouble, i * 2.0)).toDF("x", "y")
    val bins = SparkStage.Bins.of(1, 40, 4)
    val qs = SparkStage.groupedFiveNumbers[Int](d2, bins.index(SparkStage.cleanNum("x")), "y", bins.n)
    assert(bins.edges.length == 5)
    assert(qs.map(_._2).sum == 40)
    qs.foreach { case (_, _, q) => assert(q.length == 5 && q.sliding(2).forall(p => p(0) <= p(1))) }
  }

  /** The categorical box plot's grouping: each category's values. */
  private def byCategory(d: DataFrame, limit: Int) =
    SparkStage.groupedFiveNumbers[String](d, SparkStage.colRef("g").cast(StringType), "v", limit)

  test("groupedFiveNumbers: count matches DuckDB") {
    val d2 = Seq(("a", 1.0), ("a", 3.0), ("b", 10.0)).toDF("g", "v")
    val got = byCategory(d2, 10).map(t => (t._1, t._2)).toDF("g", "cnt")
    Oracle.assertEquivalent(got, "SELECT g, count(*) AS cnt FROM t GROUP BY g", "t" -> d2)
  }

  test("groupedFiveNumbers: caps at the most frequent groups") {
    val d2 = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0), ("c", 4.0)).toDF("g", "v")
    val out = byCategory(d2, 1)
    assert(out.size == 1 && out.head._1 == "a")
  }

  test("groupedHistograms: per-category totals") {
    val d2 = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0)).toDF("g", "v")
    val hs = SparkStage.groupedHistograms(d2, "g", "v", Seq("a", "b"), SparkStage.Bins.of(1.0, 3.0, 2))
    assert(hs("a").sum == 2 && hs("b").sum == 1)
  }

  test("Bins: empty, undefined and overflowing ranges, and clamping, as the rule before Bins") {
    import SparkStage.Bins
    // the rule as each call site spelled it before `Bins`
    def widthOf(lo: Double, hi: Double, n: Int): Double = {
      val w = (hi - lo) / n
      if (w.isNaN || w.isInfinite || w <= 0) 1.0 else w
    }
    def edgesOf(lo: Double, w: Double, n: Int): Array[Double] =
      Array.tabulate(n + 1)(i => (if (lo.isNaN) 0.0 else lo) + i * w)
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val ranges = Seq((5.0, 5.0), (Double.NaN, Double.NaN), (-1e308, 1e308), (0.0, 10.0),
      (-0.0, 0.0), (-3.7, 2.1), (0.1, 0.3))
    for ((lo, hi) <- ranges; n <- Seq(1, 3, 50)) {
      val b = Bins.of(lo, hi, n)
      assert(bits(b.edges) == bits(edgesOf(lo, widthOf(lo, hi, n), n)), s"[$lo, $hi] in $n bins")
    }
    assert(Bins.of(5.0, 5.0, 4) == Bins(5.0, 1.0, 4))
    assert(Bins.of(Double.NaN, Double.NaN, 3) == Bins(0.0, 1.0, 3))
    assert(Bins.of(-1e308, 1e308, 10) == Bins(-1e308, 1.0, 10))

    def binsOf(b: Bins, values: Option[Double]*): Seq[Option[Int]] =
      values.toDF("x").select(b.index($"x")).collect().toSeq.map(r => Option(r.get(0)).map(_.asInstanceOf[Int]))
    // a value beyond max lands in the last bin, below min in the first; null has none
    assert(binsOf(Bins.of(0.0, 10.0, 5), Some(12.0), Some(10.0), Some(9.9), Some(-3.0), Some(0.0), None) ==
      Seq(Some(4), Some(4), Some(4), Some(0), Some(0), None))
    assert(binsOf(Bins.of(-1e308, 1e308, 10), Some(1e308), Some(-1e308), Some(0.0)) == Seq(Some(9), Some(0), Some(9)))
    assert(binsOf(Bins.of(5.0, 5.0, 4), Some(5.0)) == Seq(Some(0)))
    assert(Bins(0.0, 1.0, 3).counts(Seq((0, 2L), (2, 1L), (0, 3L), (7, 9L))).toSeq == Seq(5L, 0L, 1L))
  }

  test("contingency: matches DuckDB cross tabulation") {
    val d2 = Seq(("a", "x"), ("a", "x"), ("a", "y"), ("b", "y")).toDF("c1", "c2")
    val got = SparkStage.contingency(d2, "c1", "c2").toDF("a", "b", "count")
    Oracle.assertEquivalent(got,
      "SELECT c1 AS a, c2 AS b, count(*) AS count FROM t GROUP BY c1, c2", "t" -> d2)
  }

  test("histograms: outliers beyond fences match DuckDB") {
    val d = Seq(1.0, 2.0, 3.0, 100.0, -50.0).toDF("x")
    // quartiles 3.75 and 6.25 put the Tukey fences at 0 and 10
    val fenced = statsOf(d, "x").map(_.copy(percentiles = Array.tabulate(101)(i => if (i < 50) 3.75 else 6.25)))
    val n = SparkStage.histograms(d, fenced, 4)("x").outliers
    val got = Seq(Tuple1(n)).toDF("n")
    Oracle.assertEquivalent(got,
      "SELECT count(*) FILTER (WHERE CAST(x AS DOUBLE) < 0.0 OR CAST(x AS DOUBLE) > 10.0) AS n FROM t",
      "t" -> d)
  }

  test("scatterSample: bounded size, complete pairs only") {
    val d2 = Seq((Option(1.0), Option(1.0)), (None: Option[Double], Option(2.0)),
      (Option(3.0), Option(3.0)), (Option(4.0), Option(4.0))).toDF("x", "y")
    val pts = SparkStage.scatterSample(d2, "x", "y", 2)
    assert(pts.size == 2)
    val all = SparkStage.scatterSample(d2, "x", "y", 100)
    assert(all.size == 3)
  }

  test("scatterSample: a random sample, not the first rows of sorted input") {
    val d2 = spark.range(10000).selectExpr("cast(id as double) as x", "cast(id as double) as y")
    val pts = SparkStage.scatterSample(d2, "x", "y", 100)
    assert(pts.size == 100 && pts.forall { case (x, y) => x == y })
    assert(pts.map(_._1).max > 5000)
  }
}
