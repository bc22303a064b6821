package repro.bench

import repro.SynthData
import repro.core.{EdaConfig, Overview, SparkStage}
import repro.baseline.ProfilingBaseline

/** Figure 6(a) reproduction (as a table) — substituted per DESIGN.md: the
  * paper compares Dask / Modin / Koalas / PySpark computing the
  * intermediates of plot(df) on the bitcoin dataset, and attributes the gap
  * to graph structure (Dask fuses one lazy graph; Modin evaluates each op
  * eagerly; Koalas/PySpark pay per-query scheduling overhead). We hold the
  * engine fixed (Spark) and vary exactly that axis:
  *
  *  - fused:   one job per reduction kind over ALL columns (DataPrep.EDA)
  *  - perPlot: one job per visualization (one stats agg + one histogram
  *             job per column) — the Koalas-like middle ground
  *  - eager:   one job per statistic (Modin / Pandas-profiling shape)
  */
class EngineStrategyBench extends BenchHarness {

  private val rows = 1000000L

  test("Figure 6(a): graph structure drives the engine gap on plot(df)") {
    warmUp()
    val cfg = EdaConfig.default
    val df = materialize(SynthData.bitcoinLike(spark, rows))
    val numCols = df.columns.toSeq

    val (_, tFused) = time(Overview.compute(df, cfg))

    val (_, tPerPlot) = time {
      // one fused agg per column (stats panel), one histogram job per column
      numCols.foreach { c =>
        val s = SparkStage.numericStats(df, Seq(c))(c)
        if (s.count > 0) SparkStage.histograms(df, Seq(s), cfg.int("hist.bins"))
      }
    }

    val (_, tEager) = time {
      // one job per statistic per column
      numCols.foreach { c =>
        val s = ProfilingBaseline.numericStats(df, Seq(c))(c)
        if (s.count > 0) ProfilingBaseline.histograms(df, Seq(s), cfg.int("hist.bins"))
      }
    }
    df.unpersist()

    emitTable("figure6a",
      Seq("Strategy (paper analog)", "Time (s)", "vs fused"),
      Seq(
        Seq("fused one-graph (Dask / DataPrep.EDA)", f1(tFused), fx(1.0)),
        Seq("per-visualization graphs (Koalas/PySpark)", f1(tPerPlot), fx(tPerPlot / tFused)),
        Seq("eager per-statistic (Modin)", f1(tEager), fx(tEager / tFused)),
      ))

    assert(tFused < tPerPlot, "fused must beat per-visualization graphs")
    assert(tPerPlot < tEager, "per-visualization must beat eager per-statistic")
  }
}
