package repro.bench

import repro.{PerPlot, SynthData}
import repro.core.{EdaConfig, Overview, SparkStage}
import repro.baseline.ProfilingBaseline

/** Figure 6(a) reproduction (as a table) — substituted per DESIGN.md: the
  * paper compares Dask / Modin / Koalas / PySpark computing the
  * intermediates of plot(df) on the bitcoin dataset, and attributes the gap
  * to graph structure (Dask fuses one lazy graph; Modin evaluates each op
  * eagerly; Koalas/PySpark pay per-query scheduling overhead). We hold the
  * engine and the work fixed (Spark, one `Overview.compute(df, cfg, r)`)
  * and vary exactly that axis, the reductions `r`:
  *
  *  - fused (`SparkStage`): one job per reduction kind over ALL columns
  *    (DataPrep.EDA)
  *  - per-plot (`PerPlot`): the same reductions run once per column — the
  *    Koalas-like middle ground
  *  - eager (`ProfilingBaseline`): one job per statistic (Modin /
  *    Pandas-profiling shape)
  */
class EngineStrategyBench extends BenchHarness {

  private val rows = 1000000L

  test("Figure 6(a): graph structure drives the engine gap on plot(df)") {
    warmUp()
    val cfg = EdaConfig.default
    val df = materialize(SynthData.bitcoinLike(spark, rows))

    val Seq(tFused, tPerPlot, tEager) = Seq(SparkStage, PerPlot, ProfilingBaseline)
      .map(r => time(Overview.compute(df, cfg, r))._2)
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
