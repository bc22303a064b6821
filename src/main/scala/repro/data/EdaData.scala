package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic Kaggle-shaped EDA workloads (DESIGN.md §2 substitutions).
  *
  * The paper's 15 datasets are characterized in Table 2 only by #rows and
  * #numeric/#categorical columns — the properties that drive both tools'
  * running time. `dataset` generates a mixed-type table with exactly those
  * shape parameters: numeric columns cycle through distribution families,
  * categorical columns cycle through cardinalities, and every third column
  * carries injected missing values. Deterministic in (spec, seed).
  */
object EdaData {

  /** Shape + paper-reported timings of one Table 2 row. */
  final case class DatasetSpec(name: String, rows: Long, nNumeric: Int, nCategorical: Int,
                               paperPandasProfilingSec: Double, paperDataPrepSec: Double) {
    def paperSpeedup: Double = paperPandasProfilingSec / paperDataPrepSec
    def columns: Int = nNumeric + nCategorical
  }

  /** The 15 datasets of Table 2 (shape columns and reported timings). */
  val table2: Seq[DatasetSpec] = Seq(
    DatasetSpec("heart",        303, 14,  0,  17.7, 2.0),
    DatasetSpec("diabetes",     768,  9,  0,  28.3, 1.6),
    DatasetSpec("automobile",   205, 10, 16,  38.2, 3.9),
    DatasetSpec("titanic",      891,  7,  5,  17.8, 2.1),
    DatasetSpec("women",       8553,  5,  5,  19.8, 2.3),
    DatasetSpec("credit",     30000, 25,  0, 127.0, 6.1),
    DatasetSpec("solar",      33000,  7,  4,  25.1, 2.7),
    DatasetSpec("suicide",    28000,  6,  6,  20.6, 2.8),
    DatasetSpec("diamonds",   54000,  8,  3,  28.2, 3.1),
    DatasetSpec("chess",      20000,  6, 10,  23.6, 4.3),
    DatasetSpec("adult",      49000,  6,  9,  23.2, 4.0),
    DatasetSpec("basketball", 53000, 21, 10, 126.2, 9.9),
    DatasetSpec("conflicts",  34000, 10, 15,  34.9, 8.6),
    DatasetSpec("rain",      142000, 17,  7, 100.1, 11.6),
    DatasetSpec("hotel",     119000, 20, 12,  83.2, 13.0),
  )

  private val catCardinalities = Seq(2, 5, 12, 30, 120)

  /** One numeric column; family cycles with the column index so a wide table
    * mixes normal/uniform/lognormal/skewed/integer distributions.
    */
  private def numericColumn(i: Int, seed: Long): Column = {
    val s = seed + 101 * i
    val base = i % 5 match {
      case 0 => randn(s) * 10 + 50                               // normal
      case 1 => rand(s) * 1000                                   // uniform
      case 2 => exp(randn(s) * 0.8 + 2)                          // lognormal (skewed)
      case 3 => pow(rand(s), 3) * 500                            // power-skewed
      case 4 => (rand(s) * 200).cast(IntegerType).cast(DoubleType) // integer-ish
    }
    round(base, 4)
  }

  /** One categorical column; cardinality cycles with the column index. */
  private def categoricalColumn(i: Int, seed: Long): Column = {
    val card = catCardinalities(i % catCardinalities.size)
    val s = seed + 211 * i
    // zipf-ish label weights: label id = floor(card * rand^2) skews mass to low ids
    val id = (pow(rand(s), 2) * card).cast(IntegerType)
    concat(lit(s"v${i}_"), id.cast(StringType))
  }

  /** Inject nulls: every third column gets 3–12 % missing, deterministic. */
  private def withMissing(c: Column, i: Int, seed: Long): Column =
    if (i % 3 == 0) {
      val frac = 0.03 + 0.03 * ((i / 3) % 4)
      when(rand(seed + 997 * i) < frac, lit(null)).otherwise(c)
    } else c

  /** Generate a mixed-type dataset of the given shape. */
  def dataset(spark: SparkSession, rows: Long, nNumeric: Int, nCategorical: Int,
              seed: Long = 7): DataFrame = {
    val numCols = (0 until nNumeric).map(i =>
      withMissing(numericColumn(i, seed), i, seed).as(s"num_$i"))
    val catCols = (0 until nCategorical).map(i =>
      withMissing(categoricalColumn(i, seed + 5000), i + 1, seed + 5000).as(s"cat_$i"))
    spark.range(rows).select(numCols ++ catCols: _*)
  }

  def dataset(spark: SparkSession, spec: DatasetSpec): DataFrame =
    dataset(spark, spec.rows, spec.nNumeric, spec.nCategorical,
      seed = spec.name.hashCode.toLong & 0xffff)
}
