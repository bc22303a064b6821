package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.{Eda, EdaConfig}
import repro.baseline.ProfilingBaseline
import repro.data.EdaData

/** Shared machinery for the benchmark suites: wall-clock timing, a JVM/Spark
  * warm-up pass (both tools), and markdown table emission (printed and
  * appended to bench/results/ so EXPERIMENTS.md can be diffed against a
  * fresh run).
  *
  * Set BENCH_FAST=1 to run Table 2 on a 5-dataset subset.
  */
trait BenchHarness extends SparkSpec {

  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Materialize the dataset the way both tools consume it (cached). */
  def materialize(df: DataFrame): DataFrame = {
    val cached = df.cache()
    cached.count()
    cached
  }

  private var warmedUp = false

  /** One small end-to-end run of both tools so JIT/classloading/Spark
    * lazy-init costs don't land on the first measured dataset.
    */
  def warmUp(): Unit = if (!warmedUp) {
    val tiny = materialize(EdaData.dataset(spark, 200, 3, 2))
    Eda.computeReportIntermediates(tiny, EdaConfig.default)
    Eda.computeReportIntermediates(tiny, EdaConfig.default, ProfilingBaseline)
    tiny.unpersist()
    warmedUp = true
  }

  def emitTable(name: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val sb = new StringBuilder
    sb ++= s"\n### $name\n\n"
    sb ++= header.mkString("| ", " | ", " |") + "\n"
    sb ++= header.map(_ => "---").mkString("| ", " | ", " |") + "\n"
    rows.foreach(r => sb ++= r.mkString("| ", " | ", " |") + "\n")
    val text = sb.result()
    println(text)
    // forked bench JVM runs with CWD = the bench subproject directory
    val dir = Paths.get("results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.md"), text.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  def f1(d: Double): String = f"$d%.1f"
  def fx(d: Double): String = f"$d%.1fx"
}
