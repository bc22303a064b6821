package repro

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.baseline.ProfilingBaseline
import repro.core.{Eda, EdaConfig, Overview, Reductions, SparkStage}

/** The three execution strategies — fused (`SparkStage`), per-plot
  * (`PerPlot`) and eager (`ProfilingBaseline`) — give the same report and
  * the same overview on random schemas, so Table 2 and Figure 6(a) compare
  * equal work. The report calls every `Reductions` method.
  *
  * Each table has 0–4 numeric columns (Int, Decimal, Double) and 0–3
  * categorical ones (String, Boolean), named with dots, spaces, backticks
  * and non-ASCII characters, holding nulls, NaN, ±Inf and ±0.0; the tables
  * include an empty and a single-row one, and constant and all-null
  * columns. Counts and strings agree exactly, doubles to CrossCheckSpec's
  * 1e-9. The tables come from ScalaCheck generators at fixed seeds, so a
  * failure names its table and reproduces.
  *
  * The fused report's job count is also checked against the table's
  * width-doubled copy: it grows only where doubling makes the first pair.
  */
class StrategySpec extends SparkSpec with JobCounting {
  import StrategySpec._

  private val Cases = 6
  private val cfg = EdaConfig.default
  private val strategies: Seq[(String, Reductions)] =
    Seq("fused" -> SparkStage, "per-plot" -> PerPlot, "eager" -> ProfilingBaseline)

  private val stems = Seq("a.b", "c d", "e`f", "ü", "日付", "v")
  private val decimal = DecimalType(12, 3)

  private val valuesOf: Map[DataType, Gen[Any]] = Map(
    IntegerType -> Gen.frequency(6 -> Gen.choose(-1000, 1000), 1 -> Gen.const(0)),
    decimal -> Gen.choose(-1000000L, 1000000L).map(java.math.BigDecimal.valueOf(_, 3)),
    DoubleType -> Gen.frequency(8 -> Gen.choose(-1000.0, 1000.0),
      1 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 0.0, -0.0)),
    StringType -> Gen.oneOf("", "a", "b", "ü", "x y", "a.b", "c`d"),
    BooleanType -> Gen.oneOf(true, false))

  /** Column `i` of `rows` values: varied with nulls, constant, or all null. */
  private def columnGen(i: Int, dt: DataType, rows: Int): Gen[GenColumn] = {
    val value = valuesOf(dt)
    val values: Gen[Seq[Any]] = Gen.frequency(
      6 -> Gen.listOfN(rows, Gen.frequency(5 -> value, 1 -> Gen.const(null))),
      1 -> value.map(v => Seq.fill(rows)(v)),
      1 -> Gen.const(Seq.fill(rows)(null)))
    for (stem <- Gen.oneOf(stems); vs <- values) yield GenColumn(StructField(s"$stem$i", dt), vs)
  }

  /** A table of `rows` rows with at least `least` columns of each kind. */
  private def tableGen(rows: Gen[Int], least: Int): Gen[GenTable] = for {
    n <- rows
    numeric <- Gen.choose(least, 4).flatMap(Gen.listOfN(_, Gen.oneOf[DataType](IntegerType, decimal, DoubleType)))
    categorical <- Gen.choose(least, 3).flatMap(Gen.listOfN(_, Gen.oneOf[DataType](StringType, BooleanType)))
    order <- Gen.listOfN(numeric.size + categorical.size, Gen.choose(0.0, 1.0))
    types = (numeric ++ categorical).zip(order).sortBy(_._2).map(_._1)
    columns <- Gen.sequence[List[GenColumn], GenColumn](types.zipWithIndex.map { case (t, i) => columnGen(i, t, n) })
  } yield GenTable(n, columns)

  /** Table 0 is empty and table 1 has one row, both with columns of each kind. */
  private val tables: Seq[GenTable] = Seq.tabulate(Cases) { i =>
    val gen = i match {
      case 0 => tableGen(Gen.const(0), least = 1)
      case 1 => tableGen(Gen.const(1), least = 1)
      case _ => tableGen(Gen.choose(2, 60), least = 0)
    }
    gen.pureApply(Gen.Parameters.default, Seed(1000L + i))
  }

  private def toDF(t: GenTable): DataFrame = spark.createDataFrame(
    spark.sparkContext.parallelize(Seq.tabulate(t.rows)(r => Row.fromSeq(t.columns.map(_.values(r)))), 2),
    StructType(t.columns.map(_.field)))

  /** `a` and `b` agree field by field: doubles to a relative 1e-9 (NaN
    * only with NaN, ±Inf only with itself), everything else exactly.
    */
  private def assertAgree(a: Any, b: Any, path: String): Unit = (a, b) match {
    case (x: Double, y: Double) =>
      val scale = math.max(1.0, math.max(math.abs(x), math.abs(y)))
      assert(x == y || (x.isNaN && y.isNaN) || math.abs(x - y) <= 1e-9 * scale, s"$path: $x != $y")
    case (x: Array[_], y: Array[_]) =>
      assert(x.length == y.length, s"$path: length ${x.length} != ${y.length}")
      x.indices.foreach(i => assertAgree(x(i), y(i), s"$path($i)"))
    case (x: collection.Map[_, _], y: collection.Map[_, _]) =>
      assert(x.keySet == y.keySet, s"$path: keys ${x.keySet} != ${y.keySet}")
      x.foreach { case (k, v) => assertAgree(v, y.asInstanceOf[collection.Map[Any, Any]](k), s"$path($k)") }
    case (x: Iterable[_], y: Iterable[_]) =>
      assert(x.size == y.size, s"$path: size ${x.size} != ${y.size}")
      x.zip(y).zipWithIndex.foreach { case ((u, v), i) => assertAgree(u, v, s"$path($i)") }
    case (x: Product, y: Product) if x.productArity > 0 =>
      assert(x.productPrefix == y.productPrefix && x.productArity == y.productArity, s"$path: $x != $y")
      (0 until x.productArity).foreach(i =>
        assertAgree(x.productElement(i), y.productElement(i), s"$path.${x.productElementName(i)}"))
    case _ => assert(a == b, s"$path: $a != $b")
  }

  test("the generated tables cover every value kind, table shape and odd name") {
    assert(tables.head.rows == 0 && tables(1).rows == 1 && tables.take(2).forall(_.columns.size >= 2))
    val columns = tables.flatMap(_.columns)
    val manyRows = tables.filter(_.rows > 1).flatMap(_.columns)
    assert(manyRows.exists(_.values.forall(_ == null)), "an all-null column")
    assert(manyRows.exists(c => c.values.head != null && c.values.forall(_ == c.values.head)), "a constant column")
    assert(Seq(IntegerType, decimal, DoubleType, StringType, BooleanType)
      .forall(t => columns.exists(_.field.dataType == t)), "every column type")
    val doubles = columns.flatMap(_.values).collect { case d: Double => d }
    assert(doubles.exists(_.isNaN) && doubles.contains(Double.PositiveInfinity) &&
      doubles.contains(Double.NegativeInfinity), "NaN and ±Inf")
    assert(doubles.exists(d => d == 0.0 && 1.0 / d > 0) && doubles.exists(d => d == 0.0 && 1.0 / d < 0), "±0.0")
    assert(columns.exists(_.values.contains(null)), "nulls")
    assert(Seq(".", " ", "`", "ü").forall(ch => columns.exists(_.field.name.contains(ch))), "odd names")
  }

  tables.indices.foreach { i =>
    test(s"generated table $i: fused, per-plot and eager agree, and doubling the width adds only a first pair's jobs") {
      val t = tables(i)
      val df = toDF(t)
      withClue(t.describe + "\n") {
        val results = strategies.map { case (_, r) =>
          val (report, jobs) = withJobs(Eda.computeReportIntermediates(df, cfg, r))
          (report, Overview.compute(df, cfg, r), jobs)
        }
        val (fused, fusedOverview, fusedJobs) = results.head
        strategies.zip(results).tail.foreach { case ((name, _), (report, overview, _)) =>
          assertAgree(report, fused, s"$name report")
          assertAgree(overview, fusedOverview, s"$name overview")
        }
        assertAgree(fusedOverview, fused.overview, "fused overview vs report")

        // only the first pair adds jobs: the correlation collect of a lone
        // numeric column, the grid of a lone column with data
        val numeric = fused.overview.numericStats
        val firstPairJobs = (if (numeric.size == 1) 1 else 0) + (if (numeric.count(_.count > 0) == 1) 1 else 0)
        val doubled = df.select(df.columns.toSeq.map(SparkStage.colRef) ++
          df.columns.toSeq.map(c => SparkStage.colRef(c).as(s"$c copy")): _*)
        assert(jobsOf(Eda.createReport(doubled)) == fusedJobs + firstPairJobs)
      }
    }
  }
}

private object StrategySpec {

  /** A generated column: its field and one value per row, null where missing. */
  final case class GenColumn(field: StructField, values: Seq[Any])

  final case class GenTable(rows: Int, columns: Seq[GenColumn]) {
    def describe: String = columns.map(c => s"${c.field.name}: ${c.field.dataType.simpleString} " +
      c.values.mkString("[", ", ", "]")).mkString(s"$rows rows; ", "; ", "")
  }
}
