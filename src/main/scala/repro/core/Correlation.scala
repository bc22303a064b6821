package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._
import repro.stats.LocalStats

/** Correlation task — plot_correlation(df[, col1[, col2]]) (Figure 2).
  *
  * Matrix/vector: Pearson, Spearman, and Kendall tau over the numeric
  * columns. One reduce-to-driver collect of the numeric matrix (sampled
  * above `corr.maxrows`) feeds all three coefficient computations, which
  * run locally and fan the column pairs across threads — the Section 5.2
  * engine-stage/local-stage split with its heuristic boundary: the engine
  * reduces n×m to min(n, maxrows)×m once; scheduling one distributed job
  * per coefficient would cost more than computing them. Pairwise-complete
  * deletion per pair, re-ranked per pair (pandas semantics); results are
  * exact whenever n <= corr.maxrows (all Table 2 workloads).
  *
  * Pair: scatter plot with a regression line plus the three coefficients;
  * the regression moments come from one exact distributed agg.
  */
object Correlation {

  final case class CorrelationIntermediates(
      columns: Seq[String],
      matrices: Seq[CorrelationMatrix],
      insights: Seq[Insight])

  final case class CorrelationVectorIntermediates(
      column: String, others: Seq[String],
      vectors: Seq[CorrelationVector],
      insights: Seq[Insight])

  final case class CorrelationPairIntermediates(
      scatter: ScatterPlot,
      coefficients: Map[String, Double],
      insights: Seq[Insight])

  private def corrColumns(df: DataFrame, cfg: EdaConfig): Seq[String] =
    TypeDetector.numericColumns(df).take(cfg.int("corr.maxcols"))

  def matrix(df: DataFrame, cfg: EdaConfig): CorrelationIntermediates = {
    val cols = corrColumns(df, cfg)
    val aggs = SparkStage.columnAggregates(df, cols, Nil, withDuplicates = false)
    matrixFromAggregates(df, cols, aggs, cfg)
  }

  /** Matrix computation given a shared pass 1 (reused by createReport). */
  def matrixFromAggregates(df: DataFrame, cols: Seq[String],
                           aggs: SparkStage.TableAggregates,
                           cfg: EdaConfig): CorrelationIntermediates = {
    if (cols.size < 2) return CorrelationIntermediates(cols, Nil, Nil)
    val hasVariance = (c: String) => {
      val s = aggs.numeric(c); s.count > 1 && !s.std.isNaN && s.std > 0
    }
    val methods = cfg.strings("corr.methods")
    // ONE reduce-to-driver collect feeds all three coefficient matrices
    lazy val sample = SparkStage.collectNumericMatrix(df, cols, aggs.rows,
      cfg.long("corr.maxrows"))
    val matrices = methods.map {
      case "pearson" =>
        LocalStage.correlationMatrix("pearson", cols,
          LocalStage.pearsonFromMatrix(cols, sample), hasVariance)
      case "spearman" =>
        LocalStage.correlationMatrix("spearman", cols,
          LocalStage.spearmanFromMatrix(cols, sample), hasVariance)
      case "kendall" =>
        LocalStage.correlationMatrix("kendall", cols,
          LocalStage.kendallFromMatrix(cols, sample), hasVariance)
    }
    val insights = matrices.flatMap(m => Insights.highCorrelations(m, cfg))
    CorrelationIntermediates(cols, matrices, insights)
  }

  def vector(df: DataFrame, column: String, cfg: EdaConfig): CorrelationVectorIntermediates = {
    require(TypeDetector.typeOf(df, column) == ColumnType.Numerical,
      s"plot_correlation(df, col): '$column' must be numerical")
    val cols = corrColumns(df, cfg)
    val others = cols.filterNot(_ == column)
    val sub = column +: others
    val aggs = SparkStage.columnAggregates(df, sub, Nil, withDuplicates = false)
    val hasVariance = (c: String) => {
      val s = aggs.numeric(c); s.count > 1 && !s.std.isNaN && s.std > 0
    }
    def vecOf(method: String, coeff: Map[(String, String), Double]) =
      CorrelationVector(method, column, others,
        others.map(o => if (hasVariance(column) && hasVariance(o))
          coeff((column, o)) else Double.NaN).toArray)

    lazy val sample = SparkStage.collectNumericMatrix(df, sub, aggs.rows,
      cfg.long("corr.maxrows"))
    def restrict(m: Map[(String, String), Double]): Map[(String, String), Double] =
      m.collect {
        case ((a, b), v) if a == column => (a, b) -> v
        case ((a, b), v) if b == column => (b, a) -> v
      }
    val methods = cfg.strings("corr.methods")
    val vectors = methods.map {
      case "pearson" =>
        vecOf("pearson", restrict(LocalStage.pearsonFromMatrix(sub, sample)))
      case "spearman" =>
        vecOf("spearman", restrict(LocalStage.spearmanFromMatrix(sub, sample)))
      case "kendall" =>
        vecOf("kendall", restrict(LocalStage.kendallFromMatrix(sub, sample)))
    }
    val t = cfg.double("insight.correlation.threshold")
    val insights = vectors.flatMap { v =>
      v.others.zip(v.values).collect {
        case (o, r) if !r.isNaN && math.abs(r) > t =>
          Insight("high-correlation", Seq(column, o),
            f"$column and $o are highly correlated (${v.method} = $r%.3f)", r)
      }
    }
    CorrelationVectorIntermediates(column, others, vectors, insights)
  }

  def pair(df: DataFrame, c1: String, c2: String, cfg: EdaConfig): CorrelationPairIntermediates = {
    require(TypeDetector.typeOf(df, c1) == ColumnType.Numerical &&
            TypeDetector.typeOf(df, c2) == ColumnType.Numerical,
      s"plot_correlation(df, col1, col2): both columns must be numerical")
    val moments = SparkStage.pairwiseMoments(df, Seq((c1, c2)))((c1, c2))
    val (slope, intercept) = moments.regression
    val points = SparkStage.scatterSample(df, c1, c2, cfg.int("scatter.sample"))
    val scatter = ScatterPlot(c1, c2, points, slope, intercept, moments.pearson)

    // spearman/kendall locally on the collected (sampled) pair
    val sample = SparkStage.collectNumericMatrix(df, Seq(c1, c2),
      totalRows = moments.n, maxRows = cfg.long("corr.maxrows"))
    val complete = sample(0).indices.filter(i => !sample(0)(i).isNaN && !sample(1)(i).isNaN)
    val xs = complete.map(sample(0)).toArray
    val ys = complete.map(sample(1)).toArray
    val coefficients = cfg.strings("corr.methods").map {
      case "pearson"  => "pearson" -> moments.pearson
      case "spearman" => "spearman" -> (if (xs.length > 1) LocalStats.spearman(xs.toSeq, ys.toSeq) else Double.NaN)
      case "kendall"  => "kendall" -> LocalStats.kendallTauB(xs, ys)
    }.toMap
    val t = cfg.double("insight.correlation.threshold")
    val insights = coefficients.toSeq.collect {
      case (m, v) if !v.isNaN && math.abs(v) > t =>
        Insight("high-correlation", Seq(c1, c2),
          f"$c1 and $c2 are highly correlated ($m = $v%.3f)", v)
    }
    CorrelationPairIntermediates(scatter, coefficients, insights)
  }
}
