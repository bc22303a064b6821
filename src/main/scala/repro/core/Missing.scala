package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Intermediates._
import repro.stats.Dendrogram
import repro.stats.LocalStats.PairMoments

/** Missing-value task — plot_missing(df[, col1[, col2]]) (Figure 2).
  *
  * Overview: bar chart of missing counts, missing spectrum, nullity
  * correlation heatmap, dendrogram — all derived locally from the row
  * count of every (spectrum bucket, missing pattern). The heatmap and the
  * dendrogram share the nullity sums those pattern counts give.
  *
  * Impact (col1): the distribution of every other column before vs. after
  * dropping the rows where col1 is missing — ALL columns in one histogram
  * job and one frequency job, each counting the kept rows beside all rows;
  * the numeric pass 1 (two jobs) supplies the bins and one agg counts the
  * rows kept.
  *
  * Pair (col1, col2): the same pipeline over col2 alone, plus its PDF, CDF
  * and a five-number agg for the box plots before vs. after.
  */
object Missing {

  final case class MissingOverviewIntermediates(
      bar: MissingBarChart,
      spectrum: MissingSpectrum,
      nullityCorrelation: CorrelationMatrix,
      dendrogram: MissingDendrogram,
      insights: Seq[Insight])

  final case class MissingImpactIntermediates(
      column: String,
      rowsTotal: Long,
      rowsKept: Long,
      histograms: Map[String, ImpactHistogram],
      frequencies: Map[String, ImpactFrequencies],
      insights: Seq[Insight])

  final case class MissingPairIntermediates(
      col1: String, col2: String,
      rowsTotal: Long, rowsKept: Long,
      histogram: Option[ImpactHistogram],
      pdfBefore: Array[Double], pdfAfter: Array[Double],
      cdfBefore: Array[Double], cdfAfter: Array[Double],
      boxes: Option[ImpactBoxPlot],
      frequencies: Option[ImpactFrequencies],
      insights: Seq[Insight])

  /** plot_missing(df): one `missingPatterns` reduction, two Spark jobs. */
  def overview(df: DataFrame, cfg: EdaConfig): MissingOverviewIntermediates = {
    val cols = df.columns.toSeq
    val (rows, missingCounts, spectrum, bothMissing) =
      SparkStage.missing(df, cols, cfg.int("spectrum.bins"))
    assembleOverview(cols, rows, missingCounts, spectrum, bothMissing, cfg)
  }

  /** The overview from the row count, each column's missing count, the
    * spectrum and the both-missing count of columns i and j (asked only for
    * nullity-matrix pairs). Columns with no missing values stay in the bar
    * chart and spectrum but — like missingno — leave the nullity matrix and
    * dendrogram unless fewer than two columns have any missing. For 0/1
    * indicators Σx = Σx² = missing count and Σxy = both-missing count.
    */
  def assembleOverview(cols: Seq[String], rows: Long, missingCounts: Seq[Long],
                       spectrum: MissingSpectrum, bothMissing: (Int, Int) => Long,
                       cfg: EdaConfig): MissingOverviewIntermediates = {
    val bar = MissingBarChart(cols, missingCounts, rows)
    val missingOf = cols.zip(missingCounts).toMap
    val withMissing = cols.indices.filter(missingCounts(_) > 0)
    val nullity = if (withMissing.size >= 2) withMissing else cols.indices
    val nullityCols = nullity.map(cols)
    val moments = (for (i <- nullity; j <- nullity if i < j) yield {
      val (mi, mj) = (missingCounts(i).toDouble, missingCounts(j).toDouble)
      (cols(i), cols(j)) -> PairMoments(rows, mi, mj, mi, mj, bothMissing(i, j).toDouble)
    }).toMap
    val nullityCorr = LocalStage.correlationMatrix("nullity", nullityCols,
      moments.map { case (p, m) => p -> m.pearson },
      hasVariance = c => missingOf(c) > 0 && missingOf(c) < rows)
    val distances = LocalStage.nullityDistances(nullityCols, rows, moments)
    val dendrogram = MissingDendrogram(nullityCols,
      Dendrogram.singleLinkage(nullityCols, distances))

    val missingT = cfg.double("insight.missing.threshold")
    val insights = cols.zip(missingCounts).collect {
      case (c, m) if rows > 0 && m.toDouble / rows > missingT =>
        Insight("missing", Seq(c),
          f"$c has ${m.toDouble / rows * 100}%.1f%% missing values", m.toDouble / rows)
    } ++ Insights.correlatedMissingness(nullityCorr, cfg)

    MissingOverviewIntermediates(bar, spectrum, nullityCorr, dendrogram, insights)
  }

  /** plot_missing(df, col1): every other column before vs. after. */
  def impact(df: DataFrame, col1: String, cfg: EdaConfig): MissingImpactIntermediates = {
    require(df.columns.contains(col1), s"column '$col1' not found")
    impactOf(df, col1, df.columns.toSeq.filterNot(_ == col1), cfg)
  }

  /** `cols` over all rows vs. the rows where col1 is present. Pass 1 runs
    * only to bin numeric columns; the rows kept need an agg of their own.
    */
  private def impactOf(df: DataFrame, col1: String, cols: Seq[String],
                       cfg: EdaConfig): MissingImpactIntermediates = {
    val keep = !SparkStage.isMissing(df, col1)
    val (numCols, catCols) = cols.partition(TypeDetector.typeOf(df, _) == ColumnType.Numerical)
    val stats = SparkStage.numericStats(df, numCols)
    val hists = SparkStage.histograms(df, numCols.map(stats).filter(_.count > 0), cfg.int("hist.bins"), keep)
      .map { case (c, b) => c -> b.impact }
    val freqs = SparkStage.frequencies(df, catCols, cfg.int("freq.maxdistinct"), keep)
      .map { case (c, vs) => c -> ImpactFrequencies(c, vs.take(cfg.int("bar.topk"))) }
    val rows = df.agg(count(lit(1)), count(when(keep, 1))).head()
    val insights = hists.values.toSeq.sortBy(_.column).flatMap(Insights.missingImpact(col1, _, cfg))
    MissingImpactIntermediates(col1, rows.getLong(0), rows.getLong(1), hists, freqs, insights)
  }

  /** plot_missing(df, col1, col2): col2's impact and, when col2 is numeric
    * with data, its PDF, CDF and box plots before vs. after.
    */
  def pair(df: DataFrame, col1: String, col2: String, cfg: EdaConfig): MissingPairIntermediates = {
    require(df.columns.contains(col1), s"column '$col1' not found")
    val impact = impactOf(df, col1, Seq(col2), cfg)
    val hist = impact.histograms.get(col2)
    val none = (Array.empty[Double], Array.empty[Double])
    val (pdfB, cdfB) = hist.fold(none)(h => LocalStage.pdfCdf(h.before))
    val (pdfA, cdfA) = hist.fold(none)(h => LocalStage.pdfCdf(h.after))

    // five-number summaries before/after in one action
    val boxes = if (hist.isEmpty) None else {
      val yc = SparkStage.cleanNum(col2)
      val qRow = df.agg(SparkStage.fiveNumbers(yc),
        SparkStage.fiveNumbers(when(!SparkStage.isMissing(df, col1), yc))).head()
      def qs(i: Int): Option[Array[Double]] =
        if (qRow.isNullAt(i)) None else Some(qRow.getSeq[Double](i).toArray)
      for (b <- qs(0); a <- qs(1)) yield ImpactBoxPlot(col2,
        LocalStage.boxFromFiveNumbers(s"$col2 (all rows)", b),
        LocalStage.boxFromFiveNumbers(s"$col2 ($col1 present)", a))
    }

    MissingPairIntermediates(col1, col2, impact.rowsTotal, impact.rowsKept, hist, pdfB, pdfA, cdfB, cdfA,
      boxes, impact.frequencies.get(col2), impact.insights)
  }
}
