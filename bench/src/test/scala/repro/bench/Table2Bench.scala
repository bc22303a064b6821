package repro.bench

import repro.core.{Eda, EdaConfig}
import repro.baseline.ProfilingBaseline
import repro.data.EdaData

/** Table 2 reproduction: create-report wall clock, DataPrep.EDA-style fused
  * pipeline vs. the eager Pandas-profiling-style baseline, on 15 synthetic
  * datasets shaped like the paper's Kaggle datasets (#rows, #numeric,
  * #categorical from Table 2).
  *
  * The paper reports 4x–20.8x; absolute times are not expected to match a
  * 2016 Xeon running CPython, but the shape — fused wins everywhere, by
  * roughly an order of magnitude, growing with column count — must hold.
  *
  * BENCH_FAST=1 restricts to 5 representative datasets.
  */
class Table2Bench extends BenchHarness {

  private val fastSubset = Set("heart", "titanic", "credit", "rain", "hotel")
  private val specs =
    if (sys.env.get("BENCH_FAST").contains("1"))
      EdaData.table2.filter(s => fastSubset(s.name))
    else EdaData.table2

  test("Table 2: create_report, DataPrep.EDA vs Pandas-profiling baseline") {
    warmUp()
    val cfg = EdaConfig.default

    val results = specs.map { spec =>
      val df = materialize(EdaData.dataset(spark, spec))
      val (_, tFast) = time(Eda.computeReportIntermediates(df, cfg))
      val (_, tSlow) = time(Eda.computeReportIntermediates(df, cfg, ProfilingBaseline))
      df.unpersist()
      (spec, tSlow, tFast)
    }

    emitTable("table2",
      Seq("Dataset", "#Rows", "#Cols (N/C)",
        "Paper PP (s)", "Paper DataPrep (s)", "Paper Faster",
        "Ours Baseline (s)", "Ours DataPrep (s)", "Ours Faster"),
      results.map { case (s, tSlow, tFast) =>
        Seq(s.name, s.rows.toString, s"${s.columns} (${s.nNumeric}/${s.nCategorical})",
          f1(s.paperPandasProfilingSec), f1(s.paperDataPrepSec), fx(s.paperSpeedup),
          f1(tSlow), f1(tFast), fx(tSlow / tFast))
      })

    // Shape assertions (loose, machine-independent):
    results.foreach { case (s, tSlow, tFast) =>
      assert(tFast < tSlow, s"${s.name}: fused (${f1(tFast)}s) must beat eager (${f1(tSlow)}s)")
    }
    val speedups = results.map { case (_, tSlow, tFast) => tSlow / tFast }
    val median = speedups.sorted.apply(speedups.size / 2)
    assert(median >= 3.0, s"median speedup ${fx(median)} should be in the paper's 4x-20x band")
    // the paper's biggest wins are the column-heavy datasets (credit, basketball)
    val byName = results.map { case (s, tSlow, tFast) => s.name -> tSlow / tFast }.toMap
    val wide = Seq("credit", "basketball", "hotel", "rain").flatMap(byName.get)
    if (wide.nonEmpty)
      assert(wide.max >= median,
        "column-heavy datasets should sit at or above the median speedup")
  }
}
