package repro.bench

import repro.SynthData
import repro.core.{Eda, EdaConfig}
import repro.baseline.ProfilingBaseline

/** Figure 6(b) reproduction (as a table): create_report on the bitcoin-like
  * dataset, varying the row count, DataPrep.EDA vs the eager baseline.
  *
  * The paper runs 10M–100M rows on a 64GB server and finds both tools scale
  * linearly with DataPrep.EDA ~6x faster throughout. We scale the workload
  * down to 1M–4M rows (same 8-column OHLCV shape) to fit the single-node
  * time budget; the claim under test is the *shape* — near-linear scaling
  * and a roughly constant multiple between the tools.
  *
  * Both tools run with corr.maxrows=50000 (sampled correlation regime for
  * big data; identical setting on both sides). Figure 6(c)'s cluster sweep
  * needs 8 physical nodes + HDFS and is substituted by this single-node
  * sweep (see DESIGN.md / EXPERIMENTS.md).
  */
class ScalingBench extends BenchHarness {

  private val sizes = Seq(1000000L, 2000000L, 4000000L)
  private val config = Map[String, Any]("corr.maxrows" -> 50000L)

  test("Figure 6(b): create_report scaling with data size") {
    warmUp()
    val cfg = EdaConfig.from(config)

    val results = sizes.map { n =>
      val df = materialize(SynthData.bitcoinLike(spark, n))
      val (_, tFast) = time(Eda.computeReportIntermediates(df, cfg))
      val (_, tSlow) = time(Eda.computeReportIntermediates(df, cfg, ProfilingBaseline))
      df.unpersist()
      (n, tSlow, tFast)
    }

    emitTable("figure6b",
      Seq("Rows", "Baseline (s)", "DataPrep (s)", "Faster"),
      results.map { case (n, tSlow, tFast) =>
        Seq(n.toString, f1(tSlow), f1(tFast), fx(tSlow / tFast))
      })

    results.foreach { case (n, tSlow, tFast) =>
      assert(tFast < tSlow, s"$n rows: fused must beat eager")
    }
    // near-linear scaling: 4x data should cost well under 16x time
    val t1 = results.head._3; val t4 = results.last._3
    assert(t4 <= t1 * 12, f"DataPrep scaling looks superlinear: $t1%.1f -> $t4%.1f")
    val s1 = results.head._2; val s4 = results.last._2
    assert(s4 <= s1 * 12, f"baseline scaling looks superlinear: $s1%.1f -> $s4%.1f")
  }
}
