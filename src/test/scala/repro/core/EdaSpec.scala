package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}

import repro.{SparkSpec, TestHelpers}
import repro.data.EdaData

/** The task-centric facade and the fused create_report pipeline. */
class EdaSpec extends SparkSpec with TestHelpers {
  import spark.implicits._

  private lazy val df = EdaData.dataset(spark, rows = 500, nNumeric = 3, nCategorical = 2).cache()

  test("plot(df) renders an overview") {
    val r = Eda.plot(df)
    assert(r.title == "Overview")
    assert(r.tabs.map(_.name).contains("num_0"))
  }

  test("plot(df, col) dispatches on column type") {
    assert(Eda.plot(df, "num_1").title == "Univariate: num_1")
    assert(Eda.plot(df, "cat_0").tabs.map(_.name).contains("Pie Chart"))
  }

  test("plot(df, col1, col2) dispatches NN / NC / CC") {
    assert(Eda.plot(df, "num_1", "num_2").tabs.map(_.name).contains("Hexbin Plot"))
    assert(Eda.plot(df, "cat_0", "num_1").tabs.map(_.name).contains("Multi-Line Chart"))
    assert(Eda.plot(df, "cat_0", "cat_1").tabs.map(_.name).contains("Heat Map"))
  }

  test("plotCorrelation(df) / (df, col) / (df, col1, col2)") {
    assert(Eda.plotCorrelation(df).tabs.map(_.name) == Seq("Pearson", "Spearman", "Kendall"))
    assert(Eda.plotCorrelation(df, "num_0").title.contains("num_0"))
    assert(Eda.plotCorrelation(df, "num_0", "num_1").tabs.head.components.nonEmpty)
  }

  test("every call tunes the session it runs on, a new session too") {
    Eda.plot(df, "num_0")
    val other = spark.newSession()
    Eda.plot(other.range(10).toDF("x"), "x")
    assert(other.conf.get("spark.sql.codegen.wholeStage") == "false")
    assert(other.conf.get("spark.sql.adaptive.enabled") == "false")
    assert(other.conf.get("spark.sql.shuffle.partitions") ==
      math.max(4, Runtime.getRuntime.availableProcessors()).toString)
  }

  test("plotMissing(df) / (df, col) / (df, col1, col2)") {
    assert(Eda.plotMissing(df).tabs.map(_.name).contains("Dendrogram"))
    assert(Eda.plotMissing(df, "num_0").title.contains("num_0"))
    assert(Eda.plotMissing(df, "num_0", "num_1").tabs.map(_.name).contains("CDF"))
  }

  test("config map customizes a call (Figure 1 flow)") {
    val r = Eda.plot(df, "num_1", config = Map("hist.bins" -> 20))
    val hist = r.tab("Histogram").components.collectFirst {
      case c: ReportModel.ChartComponent => c
    }.get
    assert(hist.data.asInstanceOf[Intermediates.Histogram].bins == 20)
  }

  test("unknown config key fails fast") {
    intercept[IllegalArgumentException](Eda.plot(df, config = Map("no.such.key" -> 1)))
  }

  test("col2 without col1 is rejected by every function") {
    intercept[IllegalArgumentException](Eda.plot(df, null, "num_1"))
    intercept[IllegalArgumentException](Eda.plotCorrelation(df, null, "num_1"))
    intercept[IllegalArgumentException](Eda.plotMissing(df, null, "num_1"))
  }

  test("every signature works on column names with a dot, a space, a backtick or non-ASCII") {
    val schema = StructType(Seq(StructField("a.b", DoubleType), StructField("c d", DoubleType),
      StructField("e`f", StringType), StructField("ü", StringType)))
    val rows = (0 until 60).map(i => Row(
      if (i % 7 == 0) null else i.toDouble, (i * i % 11).toDouble,
      if (i % 5 == 0) null else s"v${i % 4}", s"w ${i % 3}"))
    val odd = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
    val (n1, n2, c1, c2) = ("a.b", "c d", "e`f", "ü")
    val reports = Seq(Eda.plot(odd), Eda.plot(odd, n1), Eda.plot(odd, c1),
      Eda.plot(odd, n1, n2), Eda.plot(odd, c1, n2), Eda.plot(odd, c1, c2),
      Eda.plotCorrelation(odd), Eda.plotCorrelation(odd, n1), Eda.plotCorrelation(odd, n1, n2),
      Eda.plotMissing(odd), Eda.plotMissing(odd, n1), Eda.plotMissing(odd, n1, n2),
      Eda.plotMissing(odd, c1, c2), Eda.createReport(odd))
    assert(reports.forall(_.tabs.nonEmpty))
    val fast = Eda.computeReportIntermediates(odd, EdaConfig.default)
    val eager = Eda.computeReportIntermediates(odd, EdaConfig.default, repro.baseline.ProfilingBaseline)
    assert(fast.overview.dataset == eager.overview.dataset)
    assert(fast.overview.dataset.missingCells == 9 + 12)
    assert(fast.missing.bar.missingCounts == Seq(9L, 0L, 12L, 0L))
  }

  test("createReport: has Overview, Variables, Interactions, Correlations, Missing sections") {
    val r = Eda.createReport(df)
    val names = r.tabs.map(_.name)
    assert(names.exists(_.startsWith("Overview/")))
    assert(names.exists(_.startsWith("Variables/")))
    assert(names.contains("Interactions"))
    assert(names.exists(_.startsWith("Correlations/")))
    assert(names.exists(_.startsWith("Missing/")))
  }

  test("createReport: one Variables section per column") {
    val r = Eda.createReport(df)
    df.columns.foreach { c =>
      assert(r.tabs.exists(_.name.startsWith(s"Variables/Univariate: $c/")), c)
    }
  }

  test("createReport intermediates: shared pass-1 values are consistent") {
    val ri = Eda.computeReportIntermediates(df, EdaConfig.default)
    assert(ri.overview.dataset.rows == 500)
    // the same NumericStats object feeds overview and variables
    val fromOverview = ri.overview.numericStats.find(_.name == "num_0").get
    val fromVariables = ri.variables.collectFirst {
      case n: Univariate.NumericUnivariate if n.stats.name == "num_0" => n.stats
    }.get
    assert(fromOverview eq fromVariables)
  }

  test("createReport intermediates: interactions bounded by config") {
    val ri = Eda.computeReportIntermediates(df, EdaConfig.from(Map("report.interactions" -> 2)))
    assert(ri.interactions.size == 2)
  }

  test("createReport on an all-numeric table") {
    val d = EdaData.dataset(spark, 200, 4, 0)
    val r = Eda.createReport(d)
    assert(!r.tabs.exists(_.name.contains("cat_")))
  }

  test("createReport on an all-categorical table skips correlations") {
    val d = EdaData.dataset(spark, 200, 0, 3)
    val ri = Eda.computeReportIntermediates(d, EdaConfig.default)
    assert(ri.correlations.matrices.isEmpty)
    assert(ri.interactions.isEmpty)
  }

  test("createReport HTML round-trips") {
    val html = Render.toHtml(Eda.createReport(df))
    assert(html.contains("Profile Report") && html.length > 2000)
  }
}
