package repro.core

/** The Config Manager (Section 4.2.1).
  *
  * Holds every configurable parameter of the system under a dotted key
  * (e.g. `"hist.bins"`), merges user overrides over defaults and carries
  * per-key documentation that the Render module surfaces as the "how-to
  * guide" of each plot (Section 4.1). A config comes only from
  * `EdaConfig.from` or `EdaConfig.default`, so every value a task reads has
  * the key's type and lies in its range.
  */
final class EdaConfig private (private val values: Map[String, Any]) extends Serializable {
  def int(key: String): Int = values(key).asInstanceOf[Int]
  def long(key: String): Long = values(key).asInstanceOf[Long]
  def double(key: String): Double = values(key).asInstanceOf[Double]
  def strings(key: String): Seq[String] = values(key).asInstanceOf[Seq[String]]
}

object EdaConfig {

  val CorrelationMethods: Seq[String] = Seq("pearson", "spearman", "kendall")

  /** A registry entry: a key's default, whose type is the key's type, its
    * description for the how-to guides, and the closed range [lo, hi] of a
    * numeric key.
    */
  final case class Entry(default: Any, description: String, lo: Double = 1, hi: Double = Double.PositiveInfinity)

  /** Every key. Counts that size an array, divide a range or cap a table
    * are at least 1; a KDE grid has at least 2 points and a Q-Q plot at
    * most 99, one per percentile of the pass-1 grid; fractions, entropies
    * and |r| lie in [0, 1], an L1 distance of two distributions in [0, 2].
    */
  val registry: Map[String, Entry] = Map(
    "hist.bins"              -> Entry(50, "number of bins in histograms"),
    "hist.gridpoints"        -> Entry(200, "number of KDE evaluation grid points", lo = 2),
    "qq.points"              -> Entry(99, "number of quantile points in the normal Q-Q plot", hi = 99),
    "bar.topk"               -> Entry(10, "number of categories shown in bar/pie charts"),
    "wordfreq.topk"          -> Entry(30, "number of words in the word-frequency chart"),
    "scatter.sample"         -> Entry(1000, "max points sampled for scatter plots", lo = 0),
    "grid2d.xbins"           -> Entry(30, "x bins of the 2-D density (hexbin-substitute) grid"),
    "grid2d.ybins"           -> Entry(30, "y bins of the 2-D density (hexbin-substitute) grid"),
    "box.bins"               -> Entry(10, "number of x bins for the binned box plot"),
    "nc.topk"                -> Entry(10, "number of categories in categorical-vs-numerical plots"),
    "cc.topk"                -> Entry(10, "number of categories per axis in nested/stacked/heat charts"),
    "corr.methods"           -> Entry(CorrelationMethods, "correlation coefficients to compute"),
    "corr.maxrows"           -> Entry(200000L, "rows above which correlation coefficients are computed on a collected sample"),
    "corr.maxcols"           -> Entry(40, "max numeric columns entering the correlation matrix", lo = 0),
    "spectrum.bins"          -> Entry(32, "row buckets of the missing-spectrum plot"),
    "report.interactions"    -> Entry(5, "numeric column pairs rendered in the report's Interactions section", lo = 0),
    "insight.missing.threshold"     -> Entry(0.05, "missing fraction above which a column is flagged", 0, 1),
    "insight.cardinality.threshold" -> Entry(50, "distinct count above which a categorical column is flagged", lo = 0),
    "insight.skew.threshold"        -> Entry(1.0, "absolute skewness above which a column is flagged", lo = 0),
    "insight.uniform.entropy"       -> Entry(0.99, "normalized entropy above which a distribution is flagged uniform", 0, 1),
    "insight.zeros.threshold"       -> Entry(0.1, "zero fraction above which a column is flagged", 0, 1),
    "insight.outlier.threshold"     -> Entry(0.01, "fraction beyond Tukey fences above which outliers are flagged", 0, 1),
    "insight.normal.skew"           -> Entry(0.3, "max |skewness| for the 'approximately normal' insight", lo = 0),
    "insight.normal.kurtosis"       -> Entry(0.5, "max |excess kurtosis| for the 'approximately normal' insight", lo = 0),
    "insight.similarity.threshold"  -> Entry(0.1, "max normalized-histogram L1 distance for 'similar distribution'", 0, 2),
    "insight.correlation.threshold" -> Entry(0.8, "absolute correlation above which a pair is flagged", 0, 1),
  )

  val defaults: Map[String, Any] = registry.map { case (k, e) => k -> e.default }

  /** Build a config from user overrides, checking each override once.
    *
    * An unknown key raises immediately, so a typo ("hist.bin") cannot
    * silently fall back to the default. Each value is converted to its
    * key's type: an Int or Long key takes an Int, a Long or a whole Double
    * that fits the type; a Double key takes any Int, Long or Double;
    * `corr.methods` takes a sequence of distinct known methods. A numeric
    * value must then lie in its key's range. Any other value is rejected
    * with a message naming the key and the value, before any task runs.
    */
  def from(overrides: Map[String, Any] = Map.empty): EdaConfig = {
    val unknown = overrides.keySet.diff(defaults.keySet)
    require(unknown.isEmpty,
      s"unknown config key(s): ${unknown.toSeq.sorted.mkString(", ")}; " +
      s"known keys: ${defaults.keySet.toSeq.sorted.mkString(", ")}")
    new EdaConfig(defaults ++ overrides.map { case (k, v) => k -> checked(k, v) })
  }

  val default: EdaConfig = new EdaConfig(defaults)

  /** `value` converted to `key`'s type, if it lies in the key's range. */
  private def checked(key: String, value: Any): Any = {
    val Entry(default, _, lo, hi) = registry(key)
    val shown = value match { case s: String => s""""$s"""" case v => String.valueOf(v) }
    val (kind, converted) = default match {
      case _: Int    => ("an Int", whole(value).filter(_.isValidInt).map(_.toInt))
      case _: Long   => ("a Long", whole(value).filter(_.isValidLong).map(_.toLong))
      case _: Double => ("a number", value match { case d: Double => Some(d) case n => whole(n).map(_.toDouble) })
      case _ => (s"distinct methods of ${CorrelationMethods.mkString(", ")}", value match {
        case s: Seq[_] => Some(s.map(_.toString)).filter(ms => ms.forall(CorrelationMethods.contains) && ms.distinct == ms)
        case _         => None
      })
    }
    val v = converted.getOrElse(throw new IllegalArgumentException(s"config $key: expected $kind, got $shown"))
    v match {
      case n: Number if !(n.doubleValue >= lo && n.doubleValue <= hi) =>
        def num(d: Double) = if (d.isWhole) d.toLong.toString else d.toString
        throw new IllegalArgumentException(s"config $key: expected $kind " +
          (if (hi.isInfinite) s"of at least ${num(lo)}" else s"in [${num(lo)}, ${num(hi)}]") + s", got $shown")
      case _ => v
    }
  }

  /** An Int, a Long or a whole finite Double, exactly. */
  private def whole(value: Any): Option[BigDecimal] = value match {
    case i: Int                => Some(BigDecimal(i))
    case l: Long               => Some(BigDecimal(l))
    case d: Double if d.isWhole => Some(BigDecimal(d))
    case _                     => None
  }

  /** How-to guide lines for a chart kind: which config keys customize it. */
  def howTo(prefixes: Seq[String], cfg: EdaConfig): Seq[String] =
    registry.toSeq
      .filter { case (k, _) => prefixes.exists(p => k.startsWith(p)) }
      .sortBy(_._1)
      .map { case (k, e) => s""""$k": ${cfg.values(k)} — ${e.description}""" }
}
