package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._
import repro.stats.LocalStats.PairMoments

/** Correlation task — plot_correlation(df[, col1[, col2]]) (Figure 2).
  *
  * Matrix/vector: Pearson, Spearman, and Kendall tau over the numeric
  * columns. One reduce-to-driver collect of the numeric matrix (sampled
  * above `corr.maxrows`) feeds all three coefficient computations, which
  * run locally — the Section 5.2 engine-stage/local-stage split with its
  * heuristic boundary: the engine reduces n×m to min(n, maxrows)×m once;
  * scheduling one distributed job per coefficient would cost more than
  * computing them. Locally each column is sorted once, and every pair uses
  * its complete rows: ranks are re-taken among them by one walk of each
  * column's sorted order (pandas semantics, see `LocalStage.coefficients`);
  * results are exact whenever n <= corr.maxrows (all Table 2 workloads).
  *
  * Pair: scatter plot with a regression line plus the three coefficients;
  * the regression moments come from one exact distributed agg.
  */
object Correlation {

  /** `matrixInsights(k)` are the insights of `matrices(k)`. */
  final case class CorrelationIntermediates(
      columns: Seq[String],
      matrices: Seq[CorrelationMatrix],
      matrixInsights: Seq[Seq[Insight]]) {
    def insights: Seq[Insight] = matrixInsights.flatten
  }

  /** `vectorInsights(k)` are the insights of `vectors(k)`. */
  final case class CorrelationVectorIntermediates(
      column: String, others: Seq[String],
      vectors: Seq[CorrelationVector],
      vectorInsights: Seq[Seq[Insight]]) {
    def insights: Seq[Insight] = vectorInsights.flatten
  }

  final case class CorrelationPairIntermediates(
      scatter: ScatterPlot,
      coefficients: Map[String, Double],
      insights: Seq[Insight])

  private def corrColumns(df: DataFrame, cfg: EdaConfig): Seq[String] =
    TypeDetector.numericColumns(df).take(cfg.int("corr.maxcols"))

  def matrix(df: DataFrame, cfg: EdaConfig): CorrelationIntermediates = {
    val cols = corrColumns(df, cfg)
    val numeric = SparkStage.numericStats(df, cols)
    // every row of a column is finite, missing or infinite
    val rows = cols.headOption.fold(0L)(numeric(_).total)
    matrixFromAggregates(cols, numeric, SparkStage.correlations(df, cols, rows,
      cfg.strings("corr.methods"), cfg.long("corr.maxrows")), cfg)
  }

  /** The matrices from the columns' pass-1 stats and every pair's coefficients per method. */
  def matrixFromAggregates(cols: Seq[String], numeric: Map[String, NumericStats],
                           coefficients: Map[String, Map[(String, String), Double]],
                           cfg: EdaConfig): CorrelationIntermediates = {
    if (cols.size < 2) return CorrelationIntermediates(cols, Nil, Nil)
    val matrices = cfg.strings("corr.methods").map(m =>
      LocalStage.correlationMatrix(m, cols, coefficients(m), numeric(_).hasVariance))
    CorrelationIntermediates(cols, matrices, matrices.map(Insights.highCorrelations(_, cfg)))
  }

  def vector(df: DataFrame, column: String, cfg: EdaConfig): CorrelationVectorIntermediates = {
    require(TypeDetector.typeOf(df, column) == ColumnType.Numerical,
      s"plot_correlation(df, col): '$column' must be numerical")
    val cols = corrColumns(df, cfg)
    val others = cols.filterNot(_ == column)
    val sub = column +: others
    val numeric = SparkStage.numericStats(df, sub)
    val sample = SparkStage.collectNumericMatrix(df, sub, numeric(column).total, cfg.long("corr.maxrows"))
    // only the column's own pairs: (column, other) for every other column
    val methods = cfg.strings("corr.methods")
    val coefficients = LocalStage.coefficients(sub, sample, methods,
      others.indices.map(i => (0, i + 1)))
    val vectors = methods.map { m =>
      CorrelationVector(m, column, others,
        others.map(o => if (numeric(column).hasVariance && numeric(o).hasVariance)
          coefficients(m)((column, o)) else Double.NaN).toArray)
    }
    val insights = vectors.map(v => v.others.zip(v.values).flatMap { case (o, r) =>
      Insights.highCorrelation(column, o, v.method, r, cfg)
    })
    CorrelationVectorIntermediates(column, others, vectors, insights)
  }

  def pair(df: DataFrame, c1: String, c2: String, cfg: EdaConfig): CorrelationPairIntermediates = {
    require(TypeDetector.typeOf(df, c1) == ColumnType.Numerical &&
            TypeDetector.typeOf(df, c2) == ColumnType.Numerical,
      s"plot_correlation(df, col1, col2): both columns must be numerical")
    val (moments, scatter) = scatterWithRegression(df, c1, c2, cfg)

    // spearman/kendall locally on the collected (sampled) pair; pearson is
    // the exact one from the moments, which also give the regression line
    val sample = SparkStage.collectNumericMatrix(df, Seq(c1, c2),
      totalRows = moments.n, maxRows = cfg.long("corr.maxrows"))
    val methods = cfg.strings("corr.methods")
    val ranks = LocalStage.coefficients(Seq(c1, c2), sample, methods.filterNot(_ == "pearson"), Seq((0, 1)))
    // built in corr.methods order, which a map of at most three keys keeps
    val coefficients = methods.map(m =>
      m -> (if (m == "pearson") moments.pearson else ranks(m)((c1, c2)))).toMap
    val insights = coefficients.toSeq.flatMap { case (m, r) =>
      Insights.highCorrelation(c1, c2, m, r, cfg)
    }
    CorrelationPairIntermediates(scatter, coefficients, insights)
  }

  /** The exact moments of (x, y) over pairwise-complete rows and the scatter
    * plot of y against x with the regression line they give: two actions.
    */
  private[core] def scatterWithRegression(df: DataFrame, x: String, y: String,
                                          cfg: EdaConfig): (PairMoments, ScatterPlot) = {
    val moments = SparkStage.pairMoments(df, x, y)
    val (slope, intercept) = moments.regression
    val points = SparkStage.scatterSample(df, x, y, cfg.int("scatter.sample"))
    (moments, ScatterPlot(x, y, points, slope, intercept, moments.pearson))
  }
}
