package repro.core

/** The Config Manager (Section 4.2.1).
  *
  * Holds every configurable parameter of the system under a dotted key
  * (e.g. `"hist.bins"`), merges user overrides over defaults, validates
  * unknown keys, and carries per-key documentation that the Render module
  * surfaces as the "how-to guide" of each plot (Section 4.1).
  */
final case class EdaConfig(entries: Map[String, Any]) {
  def int(key: String): Int = entries(key) match {
    case i: Int  => i
    case l: Long => l.toInt
    case d: Double if d == d.floor => d.toInt
    case other => throw new IllegalArgumentException(s"config $key: expected Int, got $other")
  }
  def long(key: String): Long = entries(key) match {
    case i: Int  => i.toLong
    case l: Long => l
    case other => throw new IllegalArgumentException(s"config $key: expected Long, got $other")
  }
  def double(key: String): Double = entries(key) match {
    case d: Double => d
    case i: Int    => i.toDouble
    case l: Long   => l.toDouble
    case other => throw new IllegalArgumentException(s"config $key: expected Double, got $other")
  }
  def strings(key: String): Seq[String] = entries(key) match {
    case s: Seq[_] => s.map(_.toString)
    case other => throw new IllegalArgumentException(s"config $key: expected Seq[String], got $other")
  }
}

object EdaConfig {

  val CorrelationMethods: Seq[String] = Seq("pearson", "spearman", "kendall")

  /** (default value, human description) per key. The descriptions feed the
    * how-to guides: each chart kind exposes the keys that customize it.
    */
  val registry: Map[String, (Any, String)] = Map(
    "hist.bins"              -> (50, "number of bins in histograms"),
    "hist.gridpoints"        -> (200, "number of KDE evaluation grid points"),
    "qq.points"              -> (99, "number of quantile points in the normal Q-Q plot"),
    "bar.topk"               -> (10, "number of categories shown in bar/pie charts"),
    "wordfreq.topk"          -> (30, "number of words in the word-frequency chart"),
    "freq.maxdistinct"       -> (10000, "max distinct values collected per categorical column"),
    "scatter.sample"         -> (1000, "max points sampled for scatter plots"),
    "grid2d.xbins"           -> (30, "x bins of the 2-D density (hexbin-substitute) grid"),
    "grid2d.ybins"           -> (30, "y bins of the 2-D density (hexbin-substitute) grid"),
    "box.bins"               -> (10, "number of x bins for the binned box plot"),
    "nc.topk"                -> (10, "number of categories in categorical-vs-numerical plots"),
    "cc.topk"                -> (10, "number of categories per axis in nested/stacked/heat charts"),
    "corr.methods"           -> (CorrelationMethods, "correlation coefficients to compute"),
    "corr.maxrows"           -> (200000L, "rows above which correlation coefficients are computed on a collected sample"),
    "corr.maxcols"           -> (40, "max numeric columns entering the correlation matrix"),
    "spectrum.bins"          -> (32, "row buckets of the missing-spectrum plot"),
    "report.interactions"    -> (5, "numeric column pairs rendered in the report's Interactions section"),
    "insight.missing.threshold"     -> (0.05, "missing fraction above which a column is flagged"),
    "insight.cardinality.threshold" -> (50, "distinct count above which a categorical column is flagged"),
    "insight.skew.threshold"        -> (1.0, "absolute skewness above which a column is flagged"),
    "insight.uniform.entropy"       -> (0.99, "normalized entropy above which a distribution is flagged uniform"),
    "insight.zeros.threshold"       -> (0.1, "zero fraction above which a column is flagged"),
    "insight.outlier.threshold"     -> (0.01, "fraction beyond Tukey fences above which outliers are flagged"),
    "insight.normal.skew"           -> (0.3, "max |skewness| for the 'approximately normal' insight"),
    "insight.normal.kurtosis"       -> (0.5, "max |excess kurtosis| for the 'approximately normal' insight"),
    "insight.similarity.threshold"  -> (0.1, "max normalized-histogram L1 distance for 'similar distribution'"),
    "insight.correlation.threshold" -> (0.8, "absolute correlation above which a pair is flagged"),
  )

  val defaults: Map[String, Any] = registry.map { case (k, (v, _)) => k -> v }

  /** Build a config from user overrides; unknown keys raise immediately so a
    * typo ("hist.bin") cannot silently fall back to the default. Non-positive
    * counts and `corr.maxrows`, a negative `scatter.sample`, unknown
    * correlation methods and insight thresholds outside their range are
    * rejected here, before any task.
    */
  def from(overrides: Map[String, Any] = Map.empty): EdaConfig = {
    val unknown = overrides.keySet.diff(defaults.keySet)
    require(unknown.isEmpty,
      s"unknown config key(s): ${unknown.toSeq.sorted.mkString(", ")}; " +
      s"known keys: ${defaults.keySet.toSeq.sorted.mkString(", ")}")
    val cfg = EdaConfig(defaults ++ overrides)
    countKeys.foreach(k =>
      require(cfg.int(k) > 0, s"config $k: expected a positive count, got ${cfg.entries(k)}"))
    require(cfg.long("corr.maxrows") > 0,
      s"config corr.maxrows: expected a positive row count, got ${cfg.entries("corr.maxrows")}")
    require(cfg.int("scatter.sample") >= 0,
      s"config scatter.sample: expected a non-negative count, got ${cfg.entries("scatter.sample")}")
    val badMethods = cfg.strings("corr.methods").filterNot(CorrelationMethods.contains)
    require(badMethods.isEmpty, s"config corr.methods: unknown method(s) " +
      s"${badMethods.mkString(", ")}; known: ${CorrelationMethods.mkString(", ")}")
    require(cfg.int("insight.cardinality.threshold") >= 0, s"config insight.cardinality.threshold: " +
      s"expected a non-negative count, got ${cfg.entries("insight.cardinality.threshold")}")
    thresholdRanges.foreach { case (k, lo, hi) =>
      val v = cfg.double(k)
      require(v >= lo && v <= hi, s"config $k: expected a number " +
        (if (hi.isInfinite) s"of at least $lo" else s"in [$lo, $hi]") + s", got ${cfg.entries(k)}")
    }
    cfg
  }

  /** Keys that size an array, divide a range or cap a table, so must be positive. */
  private val countKeys: Seq[String] =
    Seq("spectrum.bins", "hist.bins", "hist.gridpoints", "qq.points", "grid2d.xbins",
      "grid2d.ybins", "box.bins", "freq.maxdistinct") ++
      registry.keys.filter(_.endsWith(".topk")).toSeq.sorted

  /** The range of each numeric insight threshold: fractions, entropies and
    * |r| lie in [0, 1], an L1 distance of two distributions in [0, 2], and
    * |skewness| and |excess kurtosis| bounds are non-negative.
    */
  private val thresholdRanges: Seq[(String, Double, Double)] = Seq(
    ("insight.missing.threshold", 0.0, 1.0),
    ("insight.skew.threshold", 0.0, Double.PositiveInfinity),
    ("insight.uniform.entropy", 0.0, 1.0),
    ("insight.zeros.threshold", 0.0, 1.0),
    ("insight.outlier.threshold", 0.0, 1.0),
    ("insight.normal.skew", 0.0, Double.PositiveInfinity),
    ("insight.normal.kurtosis", 0.0, Double.PositiveInfinity),
    ("insight.similarity.threshold", 0.0, 2.0),
    ("insight.correlation.threshold", 0.0, 1.0))

  val default: EdaConfig = EdaConfig(defaults)

  /** How-to guide lines for a chart kind: which config keys customize it. */
  def howTo(prefixes: Seq[String], cfg: EdaConfig): Seq[String] =
    registry.toSeq
      .filter { case (k, _) => prefixes.exists(p => k.startsWith(p)) }
      .sortBy(_._1)
      .map { case (k, (_, desc)) => s""""$k": ${cfg.entries(k)} — $desc""" }
}
