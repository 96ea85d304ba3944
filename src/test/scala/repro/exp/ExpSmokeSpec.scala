package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.core.MonteCarlo

/** Fast smoke checks of the experiment runners (the full sweeps live in the
  * bench project).
  */
class ExpSmokeSpec extends AnyFunSuite with SparkSpec {

  test("Fig2Exp covers the full grid and matches Theorem 3.6") {
    val cells = Fig2Exp.run()
    assert(cells.size == Fig2Exp.EpsGrid.size * Fig2Exp.DeltaGrid.size)
    val spot = cells.find(c => c.eps == 0.001 && c.delta == 0.001).get
    assert(spot.iterations >= 15200000L)
    assert(Fig2Exp.format(cells).contains(spot.iterations.toString))
  }

  test("Table1Exp runs rows 1-2 with a small budget") {
    val rows = Table1Exp.run(spark, maxRows = 2, budgetMs = 30000L)
    assert(rows.map(_.nRows) == Seq(1, 2))
    // One satellite row has no duplicate groups at all: both modes instant.
    assert(rows.head.optimizedS.exists(_ < 5.0))
    assert(rows.head.unoptimizedS.exists(_ < 30.0))
    assert(Table1Exp.format(rows).contains("#Rows"))
  }

  test("satellitesPrefix truncates rows but keeps the FDs") {
    val p5 = Experiments.satellitesPrefix(spark, 5)
    val full = Experiments.prepare(spark, "satellites")
    assert(p5.inst.nRows == 5)
    assert(p5.inst.attrs == full.inst.attrs)
    assert(p5.fds == full.fds)
  }

  test("satellitesPrefix rejects n outside 1 to the row count, naming both") {
    for (n <- Seq(0, -1, 151, 200)) {
      val e = intercept[IllegalArgumentException](Experiments.satellitesPrefix(spark, n))
      assert(e.getMessage.contains(s"n = $n ") && e.getMessage.contains("150"), e.getMessage)
    }
    assert(Experiments.satellitesPrefix(spark, 150).inst == Experiments.prepare(spark, "satellites").inst)
  }

  test("prefix instances fulfil the FDs discovered on the full data") {
    for (n <- Seq(1, 3, 10)) {
      val p = Experiments.satellitesPrefix(spark, n)
      assert(p.fds.forall(repro.core.FDs.violation(p.inst, _).isEmpty), s"prefix $n")
    }
  }

  test("Fig3Exp runs one dataset end to end (iris, small iterations)") {
    val s = Fig3Exp.runOne(spark, "iris", 2000)
    assert(s.result.inst.nRows == 150 && s.result.inst.arity == 5)
    assert(s.result.plaqueColumns == Vector("class"))
    assert(s.result.minEntropy < 1.0)
    // The per-dataset line prints the non-unique cells and their clause-shape classes.
    val table = Fig3Exp.format(Seq(s)).linesIterator.toVector
    assert(table.exists(l => l.contains("iris") && l.contains("150 / 3")))
    // Columns are joined by two or more spaces; cells hold at most single ones.
    def cols(line: String) = line.trim.split(" {2,}").toVector
    val irisLine = cols(table.find(_.trim.startsWith("iris")).get)
    assert(irisLine(cols(table.head).indexOf("cells<1")) == s.result.entropies.flatten.count(_ < 1.0).toString)
  }

  test("Fig4Exp histogram accounts for all 1200 cells") {
    val h = Fig4Exp.run(spark, iterations = 2000)
    assert(h.result.cells == 1200)
    assert(h.result.histogram(0.05).map(_._2).sum == 1200)
    assert(h.result.fractionOnes > 0.85)
    assert(Fig4Exp.format(h).contains("fractionOnes"))
    // Entropy 1.0 falls in the last bucket, so its label closes the interval.
    assert(Fig4Exp.format(h).contains("[0.95, 1.00]") && !Fig4Exp.format(h).contains("1.00)"))
  }

  test("Fig5Exp produces a complete timing grid (tiny)") {
    val cells = Fig5Exp.run(spark, rowCounts = Seq(10, 20), iterCounts = Seq(500L, 1000L))
    assert(cells.size == 4)
    assert(cells.forall(_.seconds >= 0.0))
    assert(Fig5Exp.format(cells).contains("#Rows"))
  }

  test("Fig6Exp compares two MC runs (tiny)") {
    val c = Fig6Exp.run(spark, lowIters = 500, highIters = 5000)
    assert(c.maxDiff >= 0.0 && c.maxDiff <= 0.3)
    assert(c.high.cellsBelowOne > 100 && c.high.cellsBelowOne < 140)
    assert(c.highEps == MonteCarlo.accuracy(5000, 1e-6))
    assert(Fig6Exp.format(c).contains("cells < 1"))
    assert(Fig6Exp.format(c).contains("iterations compared: 500 vs 5000"))
  }

  test("ScaleExp runs at a tiny scale factor") {
    val r = ScaleExp.run(spark, sf = 0.002)
    assert(r.seconds > 0)
    assert(r.table.contains("l_orderkey"))
    assert(ScaleExp.format(r).contains("SF=0.002"))
  }

  test("formatTable aligns columns") {
    val t = Experiments.formatTable(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size <= 2)
  }
}
