package repro.core

import repro.core.Intermediates._
import repro.stats.LocalStats

/** One auto-insight: a data fact whose value crossed its (user-definable)
  * threshold (Section 4.2.2). Render highlights these in the report.
  */
final case class Insight(kind: String, columns: Seq[String], message: String, value: Double)

/** The auto-insight component: data-quality insights (missing, infinite),
  * distribution-shape insights (skewness, uniformity, normality, outliers),
  * and cross-column insights (similar distributions, high correlation,
  * correlated missingness). Thresholds come from the config.
  */
object Insights {

  /** Column `c` misses more than the missing threshold of its rows. */
  def missing(c: String, fraction: Double, cfg: EdaConfig): Option[Insight] =
    Option.when(fraction > cfg.double("insight.missing.threshold"))(Insight("missing", Seq(c),
      f"$c has ${fraction * 100}%.1f%% missing values", fraction))

  /** The "constant" and "unique" insights of a column with `count` present
    * values of which `distinct` differ.
    */
  private def distinctness(c: String, count: Long, distinct: Long): Seq[Insight] =
    Option.when(distinct == 1 && count > 0)(Insight("constant", Seq(c), s"$c is constant", 1.0)).toSeq ++
      Option.when(count > 1 && distinct == count)(Insight("unique", Seq(c), s"$c has all-distinct values", 1.0))

  def numeric(s: NumericStats, hist: Option[Histogram], outliers: Long,
              cfg: EdaConfig): Seq[Insight] = {
    val out = scala.collection.mutable.ArrayBuffer[Insight]()
    out ++= missing(s.name, s.missingFraction, cfg)
    if (s.infinites > 0)
      out += Insight("infinite", Seq(s.name),
        s"${s.name} has ${s.infinites} infinite values", s.infinites.toDouble)
    out ++= distinctness(s.name, s.count, s.distinct)
    val skewT = cfg.double("insight.skew.threshold")
    if (!s.skewness.isNaN && math.abs(s.skewness) > skewT)
      out += Insight("skewed", Seq(s.name),
        f"${s.name} is skewed (skewness = ${s.skewness}%.2f)", s.skewness)
    val zerosT = cfg.double("insight.zeros.threshold")
    if (s.count > 0 && s.zeros.toDouble / s.count > zerosT)
      out += Insight("zeros", Seq(s.name),
        f"${s.name} has ${s.zeros.toDouble / s.count * 100}%.1f%% zeros", s.zeros.toDouble / s.count)
    if (s.negatives > 0)
      out += Insight("negatives", Seq(s.name),
        s"${s.name} has ${s.negatives} negative values", s.negatives.toDouble)
    val outT = cfg.double("insight.outlier.threshold")
    if (s.count > 0 && outliers.toDouble / s.count > outT)
      out += Insight("outliers", Seq(s.name),
        f"${s.name} has $outliers outliers beyond the 1.5·IQR fences", outliers.toDouble / s.count)
    if (!s.skewness.isNaN && !s.kurtosis.isNaN &&
        math.abs(s.skewness) < cfg.double("insight.normal.skew") &&
        math.abs(s.kurtosis) < cfg.double("insight.normal.kurtosis"))
      out += Insight("normal", Seq(s.name),
        s"${s.name} is approximately normally distributed", 1.0)
    hist.foreach { h =>
      val entropy = LocalStats.normalizedEntropy(h.counts.toSeq)
      if (h.counts.count(_ > 0) > 1 && entropy > cfg.double("insight.uniform.entropy"))
        out += Insight("uniform", Seq(s.name),
          f"${s.name} is close to uniformly distributed (entropy = $entropy%.3f)", entropy)
    }
    out.toSeq
  }

  def categorical(s: CategoricalStats, cfg: EdaConfig): Seq[Insight] = {
    val out = scala.collection.mutable.ArrayBuffer[Insight]()
    out ++= missing(s.name, s.missingFraction, cfg)
    out ++= distinctness(s.name, s.count, s.distinct)
    val cardT = cfg.int("insight.cardinality.threshold")
    if (s.distinct > cardT)
      out += Insight("high-cardinality", Seq(s.name),
        s"${s.name} has high cardinality (${s.distinct} distinct values)", s.distinct.toDouble)
    out.toSeq
  }

  /** Pairs of numeric columns whose normalized histograms are close in L1
    * distance — the paper's "two distributions are similar" insight.
    * Comparable only across columns binned on the same [0,1]-normalized
    * grid, so histograms are renormalized by rank here.
    */
  def similarDistributions(hists: Seq[Histogram], cfg: EdaConfig): Seq[Insight] = {
    val t = cfg.double("insight.similarity.threshold")
    val out = scala.collection.mutable.ArrayBuffer[Insight]()
    for (i <- hists.indices; j <- i + 1 until hists.size) {
      val a = hists(i); val b = hists(j)
      if (a.counts.length == b.counts.length && a.total > 0 && b.total > 0) {
        val d = LocalStats.l1Distance(a.counts.toSeq, b.counts.toSeq)
        if (d < t)
          out += Insight("similar-distribution", Seq(a.column, b.column),
            f"${a.column} and ${b.column} have similar distributions (L1 = $d%.3f)", d)
      }
    }
    out.toSeq
  }

  /** |r| above the correlation threshold; NaN never is. */
  private def correlated(r: Double, cfg: EdaConfig): Boolean =
    !r.isNaN && math.abs(r) > cfg.double("insight.correlation.threshold")

  /** Columns a and b correlate above threshold under `method` — feature-selection insight. */
  def highCorrelation(a: String, b: String, method: String, r: Double,
                      cfg: EdaConfig): Option[Insight] =
    Option.when(correlated(r, cfg))(Insight("high-correlation", Seq(a, b),
      f"$a and $b are highly correlated ($method = $r%.3f)", r))

  def highCorrelations(matrix: CorrelationMatrix, cfg: EdaConfig): Seq[Insight] =
    matrix.pairs.flatMap { case (a, b, r) => highCorrelation(a, b, matrix.method, r, cfg) }

  /** Correlated missingness from the nullity correlation matrix. */
  def correlatedMissingness(matrix: CorrelationMatrix, cfg: EdaConfig): Seq[Insight] =
    matrix.pairs.collect { case (a, b, r) if correlated(r, cfg) =>
      Insight("correlated-missingness", Seq(a, b),
        f"missing values of $a and $b are correlated (r = $r%.3f)", r)
    }

  /** Dropping the rows where `col1` is missing moves the distribution of
    * `h.column` by more than the similarity threshold (normalized L1).
    */
  def missingImpact(col1: String, h: ImpactHistogram, cfg: EdaConfig): Option[Insight] = {
    val d = LocalStats.l1Distance(h.before.toSeq, h.after.toSeq)
    Option.when(d > cfg.double("insight.similarity.threshold"))(Insight("missing-impact",
      Seq(col1, h.column),
      f"dropping missing rows of $col1 changes the distribution of ${h.column} (L1 = $d%.3f)", d))
  }
}
