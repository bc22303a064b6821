package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import com.fasterxml.jackson.core.JsonGenerator
import com.fasterxml.jackson.databind.SerializerProvider
import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.databind.module.SimpleModule
import com.fasterxml.jackson.databind.ser.std.StdSerializer
import com.fasterxml.jackson.module.scala.DefaultScalaModule

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Correlation, Eda, EdaConfig, Missing, Render}
import repro.core.ReportModel.Report
import repro.data.EdaData

/** The benchmark's JVM side. `run.py` builds it and starts it with
  *
  * {{{
  * --workload <name> --seed <n> --seconds <s> --trace <0|1> --cores <N> --out <result.json>
  * }}}
  *
  * It sets up a local[N] SparkSession the way a user would, generates and
  * caches the workload's table, runs the workload's warm-up calls, and then
  * runs its timed block from one closed-loop client:
  *
  *  - untraced (`--trace 0`): the whole block, again until `--seconds` have
  *    passed, each call followed by `Render.toHtml` and an output check,
  *    with no listener registered;
  *  - traced (`--trace 1`): the block once under a [[SparkTrace]], then one
  *    timed call of each task-level module function, for per-layer
  *    attribution, and the fixed reference inputs.
  *
  * It writes raw timings, checks and trace totals as JSON to `--out`;
  * `run.py` turns them into metrics.
  */
object Bench {

  /** Times to set up the table in one run; set-up time is their median. */
  private val SetupRepeats = 3

  private def arg(args: Array[String], name: String): String = {
    val i = args.indexOf(s"--$name")
    require(i >= 0 && i + 1 < args.length, s"missing --$name")
    args(i + 1)
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = f; (r, seconds(t0))
  }

  private def cached(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Writes the result for `run.py`; non-finite doubles become `null`. */
  private val json = JsonMapper.builder().addModule(DefaultScalaModule)
    .addModule(new SimpleModule().addSerializer(classOf[java.lang.Double],
      new StdSerializer[java.lang.Double](classOf[java.lang.Double]) {
        override def serialize(d: java.lang.Double, gen: JsonGenerator,
                               sp: SerializerProvider): Unit =
          if (d.isNaN || d.isInfinite) gen.writeNull() else gen.writeNumber(d.doubleValue)
      }))
    .build()

  def main(args: Array[String]): Unit = {
    val workload = Workloads.byName(arg(args, "workload")).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = arg(args, "seed") match {
      case "default" => workload.defaultSeed
      case s => s.toLong
    }
    val budget = arg(args, "seconds").toDouble
    val traced = arg(args, "trace") == "1"
    val cores = arg(args, "cores").toInt

    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionS = (System.currentTimeMillis() -
      ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    try {
      val result = run(spark, workload, seed, budget, traced) ++ Map(
        "workload" -> workload.name, "seed" -> seed, "trace" -> traced,
        "rows" -> workload.rows,
        "env" -> Map(
          "nproc" -> Runtime.getRuntime.availableProcessors(),
          "spark_cores" -> cores,
          "heap_max_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
          "spark" -> spark.version,
          "scala" -> scala.util.Properties.versionNumberString,
          "java" -> System.getProperty("java.version")),
        "session_s" -> sessionS)
      Files.write(Paths.get(arg(args, "out")), json.writeValueAsBytes(result))
    } finally spark.stop()
  }

  private def run(spark: SparkSession, workload: Workload, seed: Long, budget: Double,
                  traced: Boolean): Map[String, Any] = {
    // Set-up proper: generate, cache and count the table, several times.
    val setups = (1 to SetupRepeats).map { i =>
      val (df, s) = timed(cached(workload.table(spark, seed)))
      if (i < SetupRepeats) df.unpersist(blocking = true)
      (df, s)
    }
    val df = setups.last._1
    val expected = Checks.expected(df)
    require(expected.rows == workload.rows, s"generated ${expected.rows} rows, not ${workload.rows}")
    val calls = workload.calls(df, seed)

    val (warmup, warmupS) = timed(measure(calls.warmup, expected))
    val base = Map[String, Any]("data_s" -> setups.map(_._2), "warmup" -> warmup,
      "warmup_s" -> warmupS)
    if (!traced) base + ("ops" -> measure(calls.timed, expected, budget))
    else base ++ traceRun(spark, df, calls.timed, expected) +
      ("reference" -> referenceChecks(spark))
  }

  /** Run `ops` one after another, checking each output, and run them all
    * again until `budget` seconds have passed.
    */
  private def measure(ops: Seq[Op], expected: Checks.Expected,
                      budget: Double = 0): Seq[Map[String, Any]] = {
    val t0 = System.nanoTime()
    val out = Seq.newBuilder[Map[String, Any]]
    def runAll(): Unit = ops.foreach { op =>
      val (res, wall) = timed(rendered(op.run()))
      out += Map("family" -> op.family, "call" -> op.call, "wall_s" -> wall,
        "errors" -> errorsOf(res, expected))
    }
    runAll()
    while (seconds(t0) < budget) runAll()
    out.result()
  }

  /** A call's report with its HTML, or what it threw. */
  private def rendered(f: => Report): Try[(Report, String)] =
    Try { val r = f; (r, Render.toHtml(r)) }

  private def errorsOf(res: Try[(Report, String)], expected: Checks.Expected): Seq[String] =
    res match {
      case Success((r, html)) => Checks.violations(r, html, expected)
      case Failure(e) => Seq(s"threw ${e.getClass.getName}: ${e.getMessage}")
    }

  /** Fixed inputs, checked in every traced run:
    *  - `createReport` on a narrow and a wide table of 1000 rows, with the
    *    Spark jobs each runs (a fused pipeline runs the same number on both);
    *  - one call of every fine-grained API signature on the narrow table.
    * Each yields a digest that `run.py` compares with the recorded one.
    */
  private def referenceChecks(spark: SparkSession): Map[String, Any] = {
    val narrow = cached(EdaData.dataset(spark, 1000, 5, 5))
    val wide = cached(EdaData.dataset(spark, 1000, 40, 20))
    val jobs = new java.util.concurrent.atomic.AtomicLong
    val counter = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    def jobsOf[T](f: => T): (T, Long) = {
      ListenerBusAccess.drain(spark.sparkContext)
      val before = jobs.get()
      val r = f
      ListenerBusAccess.drain(spark.sparkContext)
      (r, jobs.get() - before)
    }
    spark.sparkContext.addSparkListener(counter)
    val ((narrowRes, narrowJobs), (wideRes, wideJobs)) =
      try (jobsOf(rendered(Eda.createReport(narrow))), jobsOf(rendered(Eda.createReport(wide))))
      finally spark.sparkContext.removeSparkListener(counter)

    val calls: Seq[(String, () => Report)] = Seq(
      "plot(df)" -> (() => Eda.plot(narrow)),
      "plot(df,num_0)" -> (() => Eda.plot(narrow, "num_0")),
      "plot(df,cat_0)" -> (() => Eda.plot(narrow, "cat_0")),
      "plot(df,num_0,num_1)" -> (() => Eda.plot(narrow, "num_0", "num_1")),
      "plot(df,cat_0,num_1)" -> (() => Eda.plot(narrow, "cat_0", "num_1")),
      "plot(df,cat_0,cat_1)" -> (() => Eda.plot(narrow, "cat_0", "cat_1")),
      "plotCorrelation(df)" -> (() => Eda.plotCorrelation(narrow)),
      "plotCorrelation(df,num_0)" -> (() => Eda.plotCorrelation(narrow, "num_0")),
      "plotCorrelation(df,num_0,num_1)" -> (() => Eda.plotCorrelation(narrow, "num_0", "num_1")),
      "plotMissing(df)" -> (() => Eda.plotMissing(narrow)),
      "plotMissing(df,num_0)" -> (() => Eda.plotMissing(narrow, "num_0")),
      "plotMissing(df,num_0,cat_2)" -> (() => Eda.plotMissing(narrow, "num_0", "cat_2")),
    )
    val narrowExp = Checks.expected(narrow)
    val wideExp = Checks.expected(wide)
    def checked(res: Try[(Report, String)], exp: Checks.Expected): Map[String, Any] =
      Map("errors" -> errorsOf(res, exp)) ++ res.toOption.map(r => "digest" -> Checks.digest(r._1))
    val digests = Map(
      "createReport(narrow)" -> checked(narrowRes, narrowExp),
      "createReport(wide)" -> checked(wideRes, wideExp),
    ) ++ calls.map { case (name, f) => name -> checked(rendered(f()), narrowExp) }
    narrow.unpersist(blocking = true)
    wide.unpersist(blocking = true)
    Map("jobs_narrow" -> narrowJobs, "jobs_wide" -> wideJobs, "calls" -> digests)
  }

  /** The traced run: the timed block once under a [[SparkTrace]], then one
    * timed call of each task-level module function on the same table.
    */
  private def traceRun(spark: SparkSession, df: DataFrame, ops: Seq[Op],
                       expected: Checks.Expected): Map[String, Any] = {
    val trace = new SparkTrace(spark)
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
    trace.start()
    val (tracedOps, snap) = try {
      trace.reset()
      heapPools.foreach(_.resetPeakUsage())
      val tracedOps = measure(ops, expected)
      (tracedOps, trace.snapshot())
    } finally trace.stop()
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6

    val cfg = EdaConfig.default
    val methodS = Seq("pearson", "spearman", "kendall").map { m =>
      val (c, s) = timed(Correlation.matrix(df,
        EdaConfig.from(Map("corr.methods" -> Seq(m)))))
      (m, s, c.columns.size)
    }
    val (_, missingS) = timed(Missing.overview(df, cfg))
    val inter = Eda.computeReportIntermediates(df, cfg)
    val (report, fullReportS) = timed(Render.fullReport(inter, cfg))
    val (html, toHtmlS) = timed(Render.toHtml(report))
    val k = methodS.head._3

    Map(
      "ops" -> tracedOps,
      "heap_peak_mb" -> heapPeakMb,
      "spark" -> Map(
        "jobs" -> snap.jobs, "stages" -> snap.stages, "tasks" -> snap.tasks,
        "busy_s" -> snap.busyS, "task_s" -> snap.taskS, "plan_s" -> snap.planS,
        "queries" -> snap.queries,
        "keys" -> snap.perKey.map { case (key, s) => key -> Map(
          "jobs" -> s.jobs, "stages" -> s.stages, "tasks" -> s.tasks, "busy_s" -> s.busyS,
          "task_s" -> s.taskS, "shuffle_mb" -> s.shuffleMb, "result_mb" -> s.resultMb) }),
      "modules" -> (methodS.map { case (m, s, _) => s"Correlation.matrix.${m}_s" -> s }.toMap ++
        Map(
          "Correlation.pairs" -> k.toLong * (k - 1) / 2,
          "Missing.overview_s" -> missingS,
          "Render.fullReport_s" -> fullReportS,
          "Render.toHtml_s" -> toHtmlS,
          "Render.html_kb" -> html.getBytes(StandardCharsets.UTF_8).length / 1e3)))
  }
}
