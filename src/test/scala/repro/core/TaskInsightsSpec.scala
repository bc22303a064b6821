package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}

import repro.SparkSpec

/** The exact insights each fine-grained task reports on one linear pair:
  * y = 2x + 1 over x = 1..20, and a categorical `m` missing wherever x > 10.
  * Kind, columns, message and value are all pinned, and each correlation
  * tab shows the insights of its own method only.
  */
class TaskInsightsSpec extends SparkSpec {

  private val cfg = EdaConfig.default

  private lazy val df = spark.createDataFrame(
    spark.sparkContext.parallelize((1 to 20).map(i =>
      Row(i.toDouble, 2.0 * i + 1, if (i <= 10) "k" else null)), 2),
    StructType(Seq(StructField("x", DoubleType), StructField("y", DoubleType),
      StructField("m", StringType)))).cache()

  private def correlated(method: String) = Insight("high-correlation", Seq("x", "y"),
    s"x and y are highly correlated ($method = 1.000)", 1.0)

  /** Each x (and y) has its own bin: ten bins of 1/20 before vs 1/10 after,
    * then ten of 1/20 before vs none after, summed in bin order.
    */
  private val impactL1 = (Seq.fill(10)(math.abs(1.0 / 20 - 1.0 / 10)) ++ Seq.fill(10)(1.0 / 20)).sum

  private def impact(column: String) = Insight("missing-impact", Seq("m", column),
    s"dropping missing rows of m changes the distribution of $column (L1 = 1.000)", impactL1)

  private val allMethods = Seq("pearson", "spearman", "kendall").map(correlated)

  test("Correlation.matrix: one high-correlation insight per method") {
    assert(Correlation.matrix(df, cfg).insights == allMethods)
  }

  test("Correlation.vector: one high-correlation insight per method") {
    assert(Correlation.vector(df, "x", cfg).insights == allMethods)
  }

  test("Correlation.pair: one high-correlation insight per method") {
    assert(Correlation.pair(df, "x", "y", cfg).insights == allMethods)
  }

  test("Bivariate.numNum: the pearson high-correlation insight") {
    assert(Bivariate.numNum(df, "x", "y", cfg).insights == Seq(correlated("pearson")))
  }

  test("each correlation tab lists its own method's insights, whatever the column names") {
    val named = df.withColumnRenamed("x", "kendall_a")
    def insight(method: String) = Insight("high-correlation", Seq("kendall_a", "y"),
      s"kendall_a and y are highly correlated ($method = 1.000)", 1.0)
    for (report <- Seq(Eda.plotCorrelation(named), Eda.plotCorrelation(named, "kendall_a"));
         method <- Seq("pearson", "spearman", "kendall")) {
      val listed = report.tab(method.capitalize).components.collect { case ReportModel.InsightList(is) => is }
      assert(listed == Seq(Seq(insight(method))), s"${report.title}, $method tab")
    }
  }

  test("Missing.impact: one missing-impact insight per numeric column") {
    assert(Missing.impact(df, "m", cfg).insights == Seq(impact("x"), impact("y")))
  }

  test("Missing.pair: the missing-impact insight of col2") {
    assert(Missing.pair(df, "m", "x", cfg).insights == Seq(impact("x")))
  }
}
