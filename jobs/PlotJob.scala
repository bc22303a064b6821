package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Eda, Render}
import repro.data.EdaData

/** spark-submit entry point for the fine-grained tasks:
  *
  * Usage: PlotJob <plot|plot_correlation|plot_missing> <dataset> [col1] [col2]
  *
  * Prints the rendered report as text (the Figure 1 flow, headless).
  */
object PlotJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2 && args.length <= 4,
      "usage: PlotJob <plot|plot_correlation|plot_missing> <dataset> [col1] [col2]")
    val func = args(0)
    val name = args(1)
    val cols = args.drop(2).toSeq
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"$func-$name")
      .getOrCreate()
    try {
      val spec = EdaData.table2.find(_.name == name).getOrElse(
        throw new IllegalArgumentException(s"unknown dataset '$name'"))
      val df = EdaData.dataset(spark, spec).cache()
      df.count()
      val t0 = System.nanoTime()
      val (col1, col2) = (cols.lift(0).orNull, cols.lift(1).orNull)
      val report = func match {
        case "plot"             => Eda.plot(df, col1, col2)
        case "plot_correlation" => Eda.plotCorrelation(df, col1, col2)
        case "plot_missing"     => Eda.plotMissing(df, col1, col2)
        case other => throw new IllegalArgumentException(s"unsupported function: $other")
      }
      val elapsed = (System.nanoTime() - t0) / 1e9
      println(Render.toText(report))
      println(f"$func(${(name +: cols).mkString(", ")}) finished in $elapsed%.2f s")
    } finally spark.stop()
  }
}
