package repro.core

import repro.core.Intermediates._
import repro.core.ReportModel._
import repro.core.Univariate.{CategoricalUnivariate, NumericUnivariate, UnivariateIntermediates}
import repro.core.Bivariate.{BivariateIntermediates, CatCatBivariate, CatNumBivariate, NumNumBivariate}

/** The Render module (Section 4.2.3): converts intermediates into the
  * tabbed report layout, attaching insight highlights and how-to guides.
  * Pixel plotting is out of scope (see DESIGN.md); `toHtml` emits the
  * HTML/JS-layout analog as a self-contained page of tables and chart data.
  */
object Render {

  private def fmt(d: Double): String =
    if (d.isNaN) "NaN"
    else if (d == d.floor && math.abs(d) < 1e15) d.toLong.toString
    else f"$d%.4f"

  private def howTo(cfg: EdaConfig, prefixes: String*): Seq[String] =
    EdaConfig.howTo(prefixes.toSeq, cfg)

  private def highlightsOf(insights: Seq[Insight], column: String): Set[String] =
    insights.filter(_.columns.contains(column)).map(_.kind).toSet

  // -------------------------------------------------------------------
  // Stats tables
  // -------------------------------------------------------------------

  def numericStatsTable(s: NumericStats, outliers: Long, insights: Seq[Insight]): StatsTable = {
    val kinds = highlightsOf(insights, s.name)
    val highlight = Set.newBuilder[String]
    if (kinds("missing")) highlight += "Missing"
    if (kinds("unique") || kinds("constant")) highlight += "Distinct"
    if (kinds("skewed")) highlight += "Skewness"
    if (kinds("zeros")) highlight += "Zeros"
    if (kinds("infinite")) highlight += "Infinite"
    StatsTable(s"Stats: ${s.name}", Seq(
      "Count" -> s.count.toString,
      "Missing" -> s"${s.missing} (${fmt(s.missingFraction * 100)}%)",
      "Distinct" -> s.distinct.toString,
      "Infinite" -> s.infinites.toString,
      "Mean" -> fmt(s.mean),
      "Std" -> fmt(s.std),
      "Min" -> fmt(s.min),
      "Q1" -> fmt(s.q1),
      "Median" -> fmt(s.median),
      "Q3" -> fmt(s.q3),
      "Max" -> fmt(s.max),
      "IQR" -> fmt(s.iqr),
      "Range" -> fmt(s.range),
      "Sum" -> fmt(s.sum),
      "Skewness" -> fmt(s.skewness),
      "Kurtosis" -> fmt(s.kurtosis),
      "Zeros" -> s.zeros.toString,
      "Negatives" -> s.negatives.toString,
      "Outliers" -> outliers.toString,
    ), highlight.result())
  }

  def categoricalStatsTable(s: CategoricalStats, insights: Seq[Insight]): StatsTable = {
    val kinds = highlightsOf(insights, s.name)
    val highlight = Set.newBuilder[String]
    if (kinds("missing")) highlight += "Missing"
    if (kinds("high-cardinality") || kinds("unique") || kinds("constant")) highlight += "Distinct"
    StatsTable(s"Stats: ${s.name}", Seq(
      "Count" -> s.count.toString,
      "Missing" -> s"${s.missing} (${fmt(s.missingFraction * 100)}%)",
      "Distinct" -> s.distinct.toString,
      "Min length" -> s.minLength.toString,
      "Max length" -> s.maxLength.toString,
      "Avg length" -> fmt(s.avgLength),
    ), highlight.result())
  }

  def datasetStatsTable(d: DatasetStats): StatsTable =
    StatsTable("Dataset statistics", Seq(
      "Number of rows" -> d.rows.toString,
      "Number of columns" -> d.columns.toString,
      "Numerical columns" -> d.numericColumns.toString,
      "Categorical columns" -> d.categoricalColumns.toString,
      "Missing cells" -> s"${d.missingCells} (${fmt(d.missingFraction * 100)}%)",
      "Duplicate rows" -> d.duplicateRows.toString,
    ))

  // -------------------------------------------------------------------
  // Task reports
  // -------------------------------------------------------------------

  def overviewReport(o: Overview.OverviewIntermediates, cfg: EdaConfig): Report = {
    val statsTab = Tab("Stats", Seq(datasetStatsTable(o.dataset), InsightList(o.insights)))
    val numTabs = o.numericStats.map { s =>
      Tab(s.name, Seq(
        numericStatsTable(s, 0L, o.insights),
        ChartComponent("histogram", s"Histogram of ${s.name}",
          o.histograms.get(s.name).orNull, howTo(cfg, "hist.bins")),
      ))
    }
    val catTabs = o.categoricalStats.map { s =>
      Tab(s.name, Seq(
        categoricalStatsTable(s, o.insights),
        ChartComponent("bar", s"Bar chart of ${s.name}",
          o.frequencies.get(s.name).orNull, howTo(cfg, "bar.topk")),
      ))
    }
    Report("Overview", statsTab +: (numTabs ++ catTabs))
  }

  def univariateReport(u: UnivariateIntermediates, cfg: EdaConfig): Report = u match {
    case n: NumericUnivariate =>
      Report(s"Univariate: ${n.stats.name}", Seq(
        Tab("Stats", Seq(numericStatsTable(n.stats, n.box.outliers, n.insights),
          InsightList(n.insights))),
        Tab("Histogram", Seq(ChartComponent("histogram",
          s"Histogram of ${n.stats.name}", n.histogram, howTo(cfg, "hist.bins")))),
        Tab("KDE", Seq(ChartComponent("kde",
          s"KDE plot of ${n.stats.name}", n.kde, howTo(cfg, "hist.gridpoints", "hist.bins")))),
        Tab("Normal Q-Q", Seq(ChartComponent("qq",
          s"Normal Q-Q plot of ${n.stats.name}", n.qq, howTo(cfg, "qq.points")))),
        Tab("Box Plot", Seq(ChartComponent("box",
          s"Box plot of ${n.stats.name}", n.box, Nil))),
      ))
    case c: CategoricalUnivariate =>
      Report(s"Univariate: ${c.stats.name}", Seq(
        Tab("Stats", Seq(categoricalStatsTable(c.stats, c.insights), InsightList(c.insights))),
        Tab("Bar Chart", Seq(ChartComponent("bar",
          s"Bar chart of ${c.stats.name}", c.frequencies, howTo(cfg, "bar.topk")))),
        Tab("Pie Chart", Seq(ChartComponent("pie",
          s"Pie chart of ${c.stats.name}", c.frequencies, howTo(cfg, "bar.topk")))),
        Tab("Word Frequencies", Seq(ChartComponent("wordfreq",
          s"Word frequencies of ${c.stats.name}", c.words, howTo(cfg, "wordfreq.topk")))),
      ))
  }

  def bivariateReport(b: BivariateIntermediates, cfg: EdaConfig): Report = b match {
    case nn: NumNumBivariate =>
      val t = s"${nn.xStats.name} vs ${nn.yStats.name}"
      Report(s"Bivariate: $t", Seq(
        Tab("Scatter Plot", Seq(ChartComponent("scatter", s"Scatter plot of $t",
          nn.scatter, howTo(cfg, "scatter.sample")), InsightList(nn.insights))),
        Tab("Hexbin Plot", Seq(ChartComponent("grid2d", s"2-D density of $t",
          nn.grid, howTo(cfg, "grid2d")))),
        Tab("Binned Box Plot", Seq(ChartComponent("binnedbox", s"Binned box plot of $t",
          nn.binnedBox, howTo(cfg, "box.bins")))),
      ))
    case cn: CatNumBivariate =>
      val t = s"${cn.numColumn} by ${cn.catColumn}"
      Report(s"Bivariate: $t", Seq(
        Tab("Box Plot", Seq(ChartComponent("catbox", s"Box plot of $t",
          cn.boxes, howTo(cfg, "nc.topk")))),
        Tab("Multi-Line Chart", Seq(ChartComponent("multiline", s"Distributions of $t",
          cn.lines, howTo(cfg, "nc.topk", "hist.bins")))),
      ))
    case cc: CatCatBivariate =>
      val t = s"${cc.table.c1} vs ${cc.table.c2}"
      Report(s"Bivariate: $t", Seq(
        Tab("Nested Bar Chart", Seq(ChartComponent("nestedbar", s"Nested bar chart of $t",
          cc.table, howTo(cfg, "cc.topk")))),
        Tab("Stacked Bar Chart", Seq(ChartComponent("stackedbar", s"Stacked bar chart of $t",
          cc.table, howTo(cfg, "cc.topk")))),
        Tab("Heat Map", Seq(ChartComponent("heatmap", s"Heat map of $t",
          cc.table, howTo(cfg, "cc.topk")))),
      ))
  }

  def correlationReport(c: Correlation.CorrelationIntermediates, cfg: EdaConfig): Report =
    Report("Correlation Analysis", c.matrices.zip(c.matrixInsights).map { case (m, insights) =>
      Tab(m.method.capitalize, Seq(
        ChartComponent("corr-matrix", s"${m.method.capitalize} correlation matrix",
          m, howTo(cfg, "corr.")),
        InsightList(insights),
      ))
    })

  def correlationVectorReport(c: Correlation.CorrelationVectorIntermediates, cfg: EdaConfig): Report =
    Report(s"Correlation: ${c.column} vs others", c.vectors.zip(c.vectorInsights).map { case (v, insights) =>
      Tab(v.method.capitalize, Seq(
        ChartComponent("corr-vector", s"${v.method.capitalize} correlation of ${c.column}",
          v, howTo(cfg, "corr.")),
        InsightList(insights),
      ))
    })

  def correlationPairReport(c: Correlation.CorrelationPairIntermediates, cfg: EdaConfig): Report = {
    val t = s"${c.scatter.xColumn} vs ${c.scatter.yColumn}"
    Report(s"Correlation: $t", Seq(
      Tab("Scatter Plot", Seq(
        ChartComponent("scatter-regression", s"Scatter plot with regression line: $t",
          c.scatter, howTo(cfg, "scatter.sample")),
        StatsTable("Coefficients",
          c.coefficients.toSeq.sortBy(_._1).map { case (k, v) => k -> fmt(v) }),
        InsightList(c.insights),
      ))))
  }

  def missingReport(m: Missing.MissingOverviewIntermediates, cfg: EdaConfig): Report =
    Report("Missing Value Analysis", Seq(
      Tab("Bar Chart", Seq(ChartComponent("missing-bar", "Missing values per column",
        m.bar, Nil), InsightList(m.insights))),
      Tab("Spectrum", Seq(ChartComponent("missing-spectrum", "Missing spectrum",
        m.spectrum, howTo(cfg, "spectrum.bins")))),
      Tab("Heat Map", Seq(ChartComponent("nullity-corr", "Nullity correlation",
        m.nullityCorrelation, Nil))),
      Tab("Dendrogram", Seq(ChartComponent("dendrogram", "Nullity dendrogram",
        m.dendrogram, Nil))),
    ))

  def missingImpactReport(m: Missing.MissingImpactIntermediates, cfg: EdaConfig): Report = {
    val histTabs = m.histograms.toSeq.sortBy(_._1).map { case (c, h) =>
      Tab(c, Seq(ChartComponent("impact-histogram",
        s"$c before/after dropping missing ${m.column}", h, howTo(cfg, "hist.bins"))))
    }
    val freqTabs = m.frequencies.toSeq.sortBy(_._1).map { case (c, f) =>
      Tab(c, Seq(ChartComponent("impact-bar",
        s"$c before/after dropping missing ${m.column}", f, howTo(cfg, "bar.topk"))))
    }
    val stats = StatsTable("Impact", Seq(
      "Rows" -> m.rowsTotal.toString,
      s"Rows with ${m.column} present" -> m.rowsKept.toString,
      "Rows dropped" -> (m.rowsTotal - m.rowsKept).toString,
    ))
    Report(s"Missing impact of ${m.column}",
      Tab("Stats", Seq(stats, InsightList(m.insights))) +: (histTabs ++ freqTabs))
  }

  def missingPairReport(m: Missing.MissingPairIntermediates, cfg: EdaConfig): Report = {
    val tabs = Seq.newBuilder[Tab]
    m.histogram.foreach { h =>
      tabs += Tab("Histogram", Seq(ChartComponent("impact-histogram",
        s"${m.col2} before/after dropping missing ${m.col1}", h, howTo(cfg, "hist.bins"))))
      tabs += Tab("PDF", Seq(ChartComponent("pdf", s"PDF of ${m.col2}",
        (m.pdfBefore, m.pdfAfter), Nil)))
      tabs += Tab("CDF", Seq(ChartComponent("cdf", s"CDF of ${m.col2}",
        (m.cdfBefore, m.cdfAfter), Nil)))
    }
    m.boxes.foreach { b =>
      tabs += Tab("Box Plot", Seq(ChartComponent("impact-box",
        s"Box plot of ${m.col2}", b, Nil)))
    }
    m.frequencies.foreach { f =>
      tabs += Tab("Bar Chart", Seq(ChartComponent("impact-bar",
        s"${m.col2} before/after dropping missing ${m.col1}", f, howTo(cfg, "bar.topk"))))
    }
    tabs += Tab("Stats", Seq(StatsTable("Impact", Seq(
      "Rows" -> m.rowsTotal.toString,
      s"Rows with ${m.col1} present" -> m.rowsKept.toString)),
      InsightList(m.insights)))
    Report(s"Missing impact of ${m.col1} on ${m.col2}", tabs.result())
  }

  def fullReport(r: Eda.ReportIntermediates, cfg: EdaConfig): Report = {
    val overview = overviewReport(r.overview, cfg)
    val variables = r.variables.map(univariateReport(_, cfg))
    val interactions = Tab("Interactions", r.interactions.map(g =>
      ChartComponent("grid2d", s"${g.xColumn} vs ${g.yColumn}", g, howTo(cfg, "grid2d"))))
    val correlations = correlationReport(r.correlations, cfg)
    val missing = missingReport(r.missing, cfg)
    Report("Profile Report",
      overview.tabs.map(t => t.copy(name = s"Overview/${t.name}")) ++
      variables.flatMap(v => v.tabs.map(t => t.copy(name = s"Variables/${v.title}/${t.name}"))) ++
      Seq(interactions) ++
      correlations.tabs.map(t => t.copy(name = s"Correlations/${t.name}")) ++
      missing.tabs.map(t => t.copy(name = s"Missing/${t.name}")))
  }

  // -------------------------------------------------------------------
  // Emitters
  // -------------------------------------------------------------------

  private def esc(s: String): String =
    s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

  /** Self-contained HTML page: tab sections, stats tables with insight
    * highlights, chart-data dumps, and how-to guide blocks.
    */
  def toHtml(report: Report): String = {
    val sb = new StringBuilder
    sb ++= s"<!DOCTYPE html><html><head><meta charset='utf-8'><title>${esc(report.title)}</title>"
    sb ++= "<style>table{border-collapse:collapse}td{border:1px solid #ccc;padding:2px 8px}"
    sb ++= ".hl{color:#c00;font-weight:bold}.howto{color:#666;font-size:smaller}</style>"
    sb ++= s"</head><body><h1>${esc(report.title)}</h1>"
    report.tabs.foreach { tab =>
      sb ++= s"<section><h2>${esc(tab.name)}</h2>"
      tab.components.foreach {
        case StatsTable(title, rows, highlights) =>
          sb ++= s"<h3>${esc(title)}</h3><table>"
          rows.foreach { case (k, v) =>
            val cls = if (highlights(k)) " class='hl'" else ""
            sb ++= s"<tr><td$cls>${esc(k)}</td><td$cls>${esc(v)}</td></tr>"
          }
          sb ++= "</table>"
        case ChartComponent(kind, title, data, ht) =>
          sb ++= s"<h3>${esc(title)}</h3><div data-chart='${esc(kind)}'><pre>"
          sb ++= esc(String.valueOf(data).take(4000))
          sb ++= "</pre></div>"
          if (ht.nonEmpty)
            sb ++= s"<div class='howto'>How-to guide:<br>${ht.map(esc).mkString("<br>")}</div>"
        case InsightList(insights) =>
          if (insights.nonEmpty) {
            sb ++= "<ul class='insights'>"
            insights.foreach(i => sb ++= s"<li class='hl'>[${esc(i.kind)}] ${esc(i.message)}</li>")
            sb ++= "</ul>"
          }
      }
      sb ++= "</section>"
    }
    sb ++= "</body></html>"
    sb.result()
  }

  /** Plain-text rendering (progress/debug output). */
  def toText(report: Report): String = {
    val sb = new StringBuilder
    sb ++= s"== ${report.title} ==\n"
    report.tabs.foreach { tab =>
      sb ++= s"\n[${tab.name}]\n"
      tab.components.foreach {
        case StatsTable(title, rows, highlights) =>
          sb ++= s"  $title\n"
          rows.foreach { case (k, v) =>
            val mark = if (highlights(k)) " (!)" else ""
            sb ++= s"    $k: $v$mark\n"
          }
        case ChartComponent(kind, title, _, _) =>
          sb ++= s"  <$kind> $title\n"
        case InsightList(insights) =>
          insights.foreach(i => sb ++= s"  ! ${i.message}\n")
      }
    }
    sb.result()
  }
}
