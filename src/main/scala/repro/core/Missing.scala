package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Intermediates._
import repro.stats.Dendrogram
import repro.stats.LocalStats.PairMoments

/** Missing-value task — plot_missing(df[, col1[, col2]]) (Figure 2).
  *
  * Overview: bar chart of missing counts, missing spectrum, nullity
  * correlation heatmap, dendrogram — all derived locally from one
  * `MissingCounts`: the row count, the spectrum and the both-missing count
  * of every column pair, whose diagonal is the bar chart and which the
  * heatmap and the dendrogram share.
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

  /** The missing-value counts of a table's columns: its row count, the
    * rows where columns i and j are both missing (`both(i)(i)` is column
    * i's missing count) and the missing spectrum.
    */
  final case class MissingCounts(rows: Long, both: Array[Array[Long]], spectrum: MissingSpectrum)

  /** plot_missing(df): one `SparkStage.missing` reduction, two Spark jobs. */
  def overview(df: DataFrame, cfg: EdaConfig): MissingOverviewIntermediates = {
    val cols = df.columns.toSeq
    assembleOverview(cols, SparkStage.missing(df, cols, cfg.int("spectrum.bins")), cfg)
  }

  /** The overview from the missing counts of `cols`. Columns with no
    * missing values stay in the bar chart and spectrum but — like
    * missingno — leave the nullity matrix and dendrogram unless fewer than
    * two columns have any missing. For 0/1 indicators Σx = Σx² = missing
    * count and Σxy = both-missing count; the dendrogram distance is the
    * fraction of rows where exactly one of the two is missing.
    */
  def assembleOverview(cols: Seq[String], counts: MissingCounts, cfg: EdaConfig): MissingOverviewIntermediates = {
    val MissingCounts(rows, both, spectrum) = counts
    val missingCounts = cols.indices.map(i => both(i)(i))
    val bar = MissingBarChart(cols, missingCounts, rows)
    val missingOf = cols.zip(missingCounts).toMap
    val withMissing = cols.indices.filter(missingCounts(_) > 0)
    val nullity = if (withMissing.size >= 2) withMissing else cols.indices
    val nullityCols = nullity.map(cols)
    // i < j always: pearson is not bit-symmetric in its arguments
    val nullityCorr = LocalStage.correlationMatrix("nullity", nullityCols,
      (for (i <- nullity; j <- nullity if i < j) yield {
        val (mi, mj) = (missingCounts(i).toDouble, missingCounts(j).toDouble)
        (cols(i), cols(j)) -> PairMoments(rows, mi, mj, mi, mj, both(i)(j).toDouble).pearson
      }).toMap,
      hasVariance = c => missingOf(c) > 0 && missingOf(c) < rows)
    val distances = Array.tabulate(nullity.size, nullity.size) { (a, b) =>
      val (i, j) = (nullity(a), nullity(b))
      if (i == j || rows == 0) 0.0
      else (missingCounts(i).toDouble + missingCounts(j) - 2.0 * both(i)(j)) / rows
    }
    val dendrogram = MissingDendrogram(nullityCols, Dendrogram.singleLinkage(nullityCols, distances))

    val insights = cols.zip(missingCounts).flatMap { case (c, m) =>
      Insights.missing(c, if (rows == 0) 0.0 else m.toDouble / rows, cfg)
    } ++ Insights.correlatedMissingness(nullityCorr, cfg)

    MissingOverviewIntermediates(bar, spectrum, nullityCorr, dendrogram, insights)
  }

  /** plot_missing(df, col1): every other column before vs. after. */
  def impact(df: DataFrame, col1: String, cfg: EdaConfig): MissingImpactIntermediates =
    impactOf(df, col1, df.columns.toSeq.filterNot(_ == col1), cfg)

  /** `cols` over all rows vs. the rows where col1 is present. Pass 1 runs
    * only to bin numeric columns; the rows kept need an agg of their own.
    * An unknown col1 or column of `cols` is rejected by `TypeDetector`
    * before any job.
    */
  private def impactOf(df: DataFrame, col1: String, cols: Seq[String],
                       cfg: EdaConfig): MissingImpactIntermediates = {
    val keep = !SparkStage.isMissing(df, col1)
    val (numCols, catCols) = cols.partition(TypeDetector.typeOf(df, _) == ColumnType.Numerical)
    val stats = SparkStage.numericStats(df, numCols)
    val hists = SparkStage.histograms(df, numCols.map(stats).filter(_.count > 0), cfg.int("hist.bins"), keep)
      .map { case (c, b) => c -> b.impact }
    val freqs = SparkStage.frequencies(df, catCols, cfg.int("bar.topk"), keep)
      .map { case (c, f) => c -> ImpactFrequencies(c, f.top) }
    val rows = df.agg(count(lit(1)), count(when(keep, 1))).head()
    val insights = hists.values.toSeq.sortBy(_.column).flatMap(Insights.missingImpact(col1, _, cfg))
    MissingImpactIntermediates(col1, rows.getLong(0), rows.getLong(1), hists, freqs, insights)
  }

  /** plot_missing(df, col1, col2): col2's impact and, when col2 is numeric
    * with data, its PDF, CDF and box plots before vs. after.
    */
  def pair(df: DataFrame, col1: String, col2: String, cfg: EdaConfig): MissingPairIntermediates = {
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
