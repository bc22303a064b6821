package repro.core

import org.apache.spark.sql.SparkSession

/** Session tuning for the interactive small-data EDA regime.
  *
  * Section 5.1 of the paper rejects Spark-family engines for EDA because of
  * their per-query overhead on a single node. That overhead is real and
  * measurable here: whole-stage codegen spends seconds in janino compiling
  * the fused wide plans (and fails over the 64KB method limit for the
  * widest), and AQE re-plans every tiny shuffle. For tables of 10³–10⁶ rows
  * the interpreted path is strictly faster, so both DataPrep.EDA and the
  * eager baseline run with codegen and AQE off — the Table 2 comparison then
  * measures execution *strategy* (fused vs. eager), not codegen luck.
  */
object EngineTuning {
  /** Every call tunes its own session (`newSession()` starts from the
    * defaults). Nothing is restored: concurrent calls would untune each other.
    */
  def tune(spark: SparkSession): Unit = {
    // Whole-stage fusion generates one giant janino method per stage; the
    // fused EDA plans blow the 64KB bytecode limit and waste seconds in
    // failed compiles. Per-expression codegen (the default factory mode)
    // stays on — the posexplode-shaped plans keep every tree small.
    spark.conf.set("spark.sql.codegen.wholeStage", "false")
    // AQE re-plans every tiny shuffle; pure latency at EDA scale.
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    // One reduce task per core (at least 4) instead of 200/64: task-launch
    // overhead dominates sub-second shuffles.
    spark.conf.set("spark.sql.shuffle.partitions",
      math.max(4, Runtime.getRuntime.availableProcessors()).toString)
  }
}
