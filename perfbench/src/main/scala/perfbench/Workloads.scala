package perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.Eda
import repro.core.ReportModel.Report
import repro.data.EdaData

/** One API call of a workload. `family` is the API function it belongs to. */
final case class Op(family: String, call: String, run: () => Report)

/** The calls of one run. `warmup` runs once, untimed, before measuring: it
  * loads and compiles the code paths the timed calls take, since the first
  * calls of a fresh JVM run several times slower and far less steady than
  * later ones. `timed` is the measured block: an untraced run times it whole,
  * again and again until `--seconds` have passed; a traced run traces it once.
  */
final case class Calls(warmup: Seq[Op], timed: Seq[Op])

/** A workload is one cached table and the calls that a single closed-loop
  * client makes on it. Row counts are scaled down from the paper's Table 2
  * shapes so that a run, with its JVM start, set-up and warm-up, takes about
  * a minute on four cores; the column shapes, which set how much work each
  * call fans out to, are the paper's.
  */
sealed trait Workload {
  def name: String
  def defaultSeed: Long
  def rows: Long
  def table(spark: SparkSession, seed: Long): DataFrame
  def calls(df: DataFrame, seed: Long): Calls
}

object Workloads {

  val all: Seq[Workload] = Seq(ReportWide, TasksInteractive)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private def spec(name: String): EdaData.DatasetSpec = EdaData.table2.find(_.name == name).get

  /** The seed `EdaData.dataset(spark, spec)` derives from a Table 2 name. */
  private def specSeed(name: String): Long = name.hashCode.toLong & 0xffff

  private def op(family: String, call: String)(f: => Report) = Op(family, call, () => f)

  /** `createReport` + `toHtml` on the Table 2 `hotel` shape: 20 numeric and
    * 12 categorical columns, 11 of them with nulls. Pass 1, the missing-value
    * overview and the correlation matrices (190 pairs x 3 methods) are the
    * big layers. One report warms up; one report is the timed block.
    */
  object ReportWide extends Workload {
    private val hotel = spec("hotel")
    val name = "report-wide"
    val rows = 12000L
    val defaultSeed: Long = specSeed(hotel.name)
    def table(spark: SparkSession, seed: Long): DataFrame =
      EdaData.dataset(spark, rows, hotel.nNumeric, hotel.nCategorical, seed)
    def calls(df: DataFrame, seed: Long): Calls = {
      val report = op("report", "createReport(df)")(Eda.createReport(df))
      Calls(Seq(report), Seq(report))
    }
  }

  /** Fine-grained calls on the Table 2 `conflicts` shape (10 numeric, 15
    * categorical columns). Each call is a few small Spark jobs, so the
    * per-call fixed cost (session tuning, Catalyst planning, job scheduling)
    * that `createReport` amortizes dominates here.
    *
    * The timed block is 15 calls, every kind of column and pair once:
    * `plot` and `plotMissing` of one numeric and one categorical column, of
    * one numeric-numeric, one categorical-numeric and one
    * categorical-categorical pair, and of the whole table; `plotCorrelation`
    * of one numeric column, one numeric pair and the whole table. Columns
    * and pairs are drawn with the seed. The warm-up is the same 15
    * signatures on another draw. The kinds, and with them the Spark job
    * counts, are the same on every seed.
    */
  object TasksInteractive extends Workload {
    private val conflicts = spec("conflicts")
    val name = "tasks-interactive"
    val rows = 3400L
    val defaultSeed: Long = specSeed(conflicts.name)

    def table(spark: SparkSession, seed: Long): DataFrame =
      EdaData.dataset(spark, rows, conflicts.nNumeric, conflicts.nCategorical, seed)

    def calls(df: DataFrame, seed: Long): Calls = {
      val rnd = new Random(seed)
      val (num, cat) = Checks.columnsByKind(df)
      def one(xs: Seq[String]): String = xs(rnd.nextInt(xs.size))
      def two(xs: Seq[String]): (String, String) = { val s = rnd.shuffle(xs); (s(0), s(1)) }
      def block(): Seq[Op] = {
        val (n, c) = (one(num), one(cat))
        val plotPairs = Seq(two(num), (one(cat), one(num)), two(cat))
        val (cn, cm) = two(num)
        val missingPairs = Seq(two(num), (one(cat), one(num)), two(cat))
        Seq(n, c).map(x => op("plot", s"plot(df,$x)")(Eda.plot(df, x))) ++
          plotPairs.map { case (a, b) => op("plot", s"plot(df,$a,$b)")(Eda.plot(df, a, b)) } ++
          Seq(
            op("plot", "plot(df)")(Eda.plot(df)),
            op("correlation", s"plotCorrelation(df,$n)")(Eda.plotCorrelation(df, n)),
            op("correlation", s"plotCorrelation(df,$cn,$cm)")(Eda.plotCorrelation(df, cn, cm)),
            op("correlation", "plotCorrelation(df)")(Eda.plotCorrelation(df))) ++
          Seq(n, c).map(x => op("missing", s"plotMissing(df,$x)")(Eda.plotMissing(df, x))) ++
          missingPairs.map { case (a, b) =>
            op("missing", s"plotMissing(df,$a,$b)")(Eda.plotMissing(df, a, b))
          } :+
          op("missing", "plotMissing(df)")(Eda.plotMissing(df))
      }
      val warmup = block()
      Calls(warmup, block())
    }
  }
}
