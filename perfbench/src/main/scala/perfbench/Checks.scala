package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{NumericType, StringType}

import repro.core.Intermediates._
import repro.core.ReportModel._

/** Output checks for every timed operation, and digests of intermediates.
  *
  * The invariants hold for any input, so they run on every seed:
  *  - the row count equals the rows generated;
  *  - each full-column histogram sums to its column's finite count, and so
  *    does the "before" side of each missing-impact histogram;
  *  - missing-bar counts equal the missing counts of each column;
  *  - correlation matrices are symmetric with |r| <= 1 and a diagonal of 1
  *    or NaN, and correlation vectors and scatter coefficients stay in [-1, 1].
  *
  * The expected counts come from one plain Spark aggregate written here, not
  * from the program under test.
  */
object Checks {
  private val Tol = 1e-9

  final case class Expected(rows: Long, missing: Map[String, Long], finite: Map[String, Long])

  def expected(df: DataFrame): Expected = {
    val fields = df.schema.fields.toSeq
    val exprs = count(lit(1)) +: fields.flatMap { f =>
      val c = col(s"`${f.name}`")
      f.dataType match {
        case _: NumericType =>
          val x = c.cast("double")
          Seq(count(when(x.isNull || isnan(x), 1)),
            count(when(x.isNotNull && !isnan(x) && abs(x) =!= Double.PositiveInfinity, 1)))
        case _ => Seq(count(when(c.isNull, 1)), lit(0L))
      }
    }
    val r = df.agg(exprs.head, exprs.tail: _*).head()
    val numeric = fields.filter(_.dataType.isInstanceOf[NumericType]).map(_.name).toSet
    Expected(r.getLong(0),
      fields.zipWithIndex.map { case (f, i) => f.name -> r.getLong(1 + 2 * i) }.toMap,
      fields.zipWithIndex.collect {
        case (f, i) if numeric(f.name) => f.name -> r.getLong(2 + 2 * i)
      }.toMap)
  }

  /** Every violated invariant of one operation's report and its HTML. */
  def violations(report: Report, html: String, exp: Expected): Seq[String] = {
    val out = Seq.newBuilder[String]
    def expect(ok: Boolean, what: => String): Unit = if (!ok) out += what
    expect(report.tabs.nonEmpty, "report has no tabs")
    expect(html.nonEmpty, "empty HTML")
    report.tabs.flatMap(_.components).foreach {
      case StatsTable("Dataset statistics", rows, _) =>
        val n = rows.collectFirst { case ("Number of rows", v) => v }
        expect(n.contains(exp.rows.toString), s"dataset rows $n != ${exp.rows}")
      case ChartComponent(_, title, data, _) => data match {
        case h: Histogram =>
          exp.finite.get(h.column).foreach(f =>
            expect(h.total == f, s"$title: histogram total ${h.total} != finite count $f"))
        case h: ImpactHistogram =>
          exp.finite.get(h.column).foreach(f =>
            expect(h.before.sum == f, s"$title: before-total ${h.before.sum} != finite count $f"))
        case b: MissingBarChart =>
          expect(b.totalRows == exp.rows, s"$title: rows ${b.totalRows} != ${exp.rows}")
          b.columns.zip(b.missingCounts).foreach { case (c, m) =>
            expect(exp.missing.get(c).contains(m), s"$title: $c missing $m != ${exp.missing.get(c)}")
          }
        case m: CorrelationMatrix =>
          val k = m.columns.size
          for (i <- 0 until k; j <- 0 until k) {
            val (a, b) = (m(i, j), m(j, i))
            expect((a.isNaN && b.isNaN) || math.abs(a - b) <= Tol, s"$title: asymmetric at ($i,$j)")
            expect(a.isNaN || math.abs(a) <= 1 + Tol, s"$title: |r| > 1 at ($i,$j)")
          }
          (0 until k).foreach { i =>
            val d = m(i, i)
            expect(d.isNaN || math.abs(d - 1) <= Tol, s"$title: diagonal $d at $i")
          }
        case v: CorrelationVector =>
          expect(v.values.forall(r => r.isNaN || math.abs(r) <= 1 + Tol), s"$title: |r| > 1")
        case s: ScatterPlot =>
          expect(s.pearson.isNaN || math.abs(s.pearson) <= 1 + Tol, s"$title: |r| > 1")
        case g: Grid2D =>
          val total = g.counts.map(_.sum).sum
          expect(total <= exp.rows, s"$title: grid total $total > rows ${exp.rows}")
        case _ =>
      }
      case _ =>
    }
    out.result()
  }

  /** Order-insensitive summary of a report's intermediates, per chart kind:
    * how many numbers, how many NaN, and their sum and absolute sum. Bytes
    * are not compared: the HTML embeds identity hash codes of arrays.
    */
  def digest(report: Report): Map[String, Any] = {
    val perKind = report.charts.groupBy(_.kind).map { case (kind, charts) =>
      var n = 0L; var nan = 0L; var sum = 0.0; var abs = 0.0
      charts.foreach(c => numbers(c.data) { d =>
        n += 1
        if (d.isNaN) nan += 1 else if (!d.isInfinite) { sum += d; abs += math.abs(d) }
      })
      kind -> Map("n" -> n, "nan" -> nan, "sum" -> sum, "abs" -> abs)
    }
    perKind ++ Map("tabs" -> report.tabs.size.toLong, "insights" -> report.insights.size.toLong)
  }

  private def numbers(x: Any)(f: Double => Unit): Unit = x match {
    case null =>
    case d: Double => f(d)
    case d: Float => f(d.toDouble)
    case i: Int => f(i.toDouble)
    case l: Long => f(l.toDouble)
    case _: String =>
    case a: Array[_] => a.foreach(numbers(_)(f))
    case m: collection.Map[_, _] => m.values.foreach(numbers(_)(f))
    case s: Iterable[_] => s.foreach(numbers(_)(f))
    case p: Product => p.productIterator.foreach(numbers(_)(f))
    case _ =>
  }

  /** Numeric and string columns of `df`, by schema. */
  def columnsByKind(df: DataFrame): (Seq[String], Seq[String]) = {
    val fields = df.schema.fields.toSeq
    (fields.filter(_.dataType.isInstanceOf[NumericType]).map(_.name),
      fields.filter(_.dataType == StringType).map(_.name))
  }
}
