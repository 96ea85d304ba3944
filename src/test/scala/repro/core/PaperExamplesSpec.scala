package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.data.Datasets
import repro.fdiscovery.FDDiscovery

/** Reproduces the running example of Section 1: the CD-collection instance
  * (Fig. 1a), its entropy matrix under the six genuine FDs (Fig. 1b), and
  * under automatically discovered unary FDs (Fig. 1c).
  */
class PaperExamplesSpec extends AnyFunSuite with SparkSpec {

  private lazy val inst = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
  private lazy val genuine = FDs.byName(inst.attrs, Datasets.cdGenuineFds)

  /** Figure 1b, rounded to one decimal as printed in the paper. */
  private val fig1b = Vector(
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    Vector(1.0, 1.0, 1.0, 0.7, 1.0, 1.0, 1.0),
  )

  private def round1(x: Double): Double = math.rint(x * 10) / 10

  private lazy val exact1b: Map[Pos, Double] =
    ExactEntropy.clauseMatrix(inst, genuine)

  test("CD instance has 5 rows and 7 attributes") {
    assert(inst.nRows == 5)
    assert(inst.arity == 7)
  }

  test("CD instance fulfils the six genuine FDs and their closure") {
    assert(genuine.forall(FDs.violation(inst, _).isEmpty))
    assert(FDs.closure(genuine).forall(FDs.violation(inst, _).isEmpty))
  }

  for (j <- 0 until 5; k <- 0 until 7) {
    test(f"Fig. 1b cell ($j, ${k}) has entropy ${fig1b(j)(k)}%.1f") {
      assert(round1(exact1b(Pos(j, k))) == fig1b(j)(k),
        s"exact=${exact1b(Pos(j, k))}")
    }
  }

  test("Fig. 1b: BYear for Anastacia's band is more redundant than RYear") {
    assert(exact1b(Pos(0, 3)) < exact1b(Pos(0, 4)))
  }

  test("Fig. 1b: entropy 0.6 for ID-1 BYear vs 0.7 for ID-3 BYear") {
    assert(exact1b(Pos(0, 3)) < exact1b(Pos(4, 3)))
  }

  test("Fig. 1b: row 4 (Pink Floyd) is redundancy-free") {
    for (k <- 0 until 7) assert(exact1b(Pos(3, k)) == 1.0)
  }

  // --- Figure 1c: discovered unary FDs ------------------------------------

  private lazy val discovered = FDDiscovery.discoverLocal(inst, maxLhs = 1)
  private lazy val exact1c: Map[Pos, Double] = ExactEntropy.clauseMatrix(inst, discovered)

  /** Figure 1c, rounded to one decimal as printed in the paper. */
  private val fig1c = Vector(
    Vector(0.6, 0.6, 0.4, 0.4, 0.6, 1.0, 1.0),
    Vector(0.6, 0.6, 0.4, 0.4, 0.6, 1.0, 1.0),
    Vector(0.6, 0.6, 0.4, 0.4, 0.6, 1.0, 1.0),
    Vector(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    Vector(1.0, 1.0, 0.7, 0.7, 1.0, 1.0, 1.0),
  )

  test("unary discovery finds the cyclic pair Band <-> BYear") {
    val band = inst.attrIndex("band"); val byear = inst.attrIndex("byear")
    assert(discovered.contains(FD(Set(band), byear)))
    assert(discovered.contains(FD(Set(byear), band)))
  }

  test("unary discovery finds about as many FDs as Metanome (23 reported, left-reduced unary here)") {
    // Metanome reports 23 dependencies on the original German-Wikipedia
    // relation; our mimic instance yields 20 left-reduced unary FDs.
    assert(discovered.size >= 18 && discovered.size <= 24, s"got ${discovered.size}")
  }

  for (j <- 0 until 5; k <- 0 until 7) {
    test(f"Fig. 1c cell ($j, $k) has entropy ${fig1c(j)(k)}%.1f") {
      assert(round1(exact1c(Pos(j, k))) == fig1c(j)(k),
        s"exact=${exact1c(Pos(j, k))}")
    }
  }

  test("Fig. 1c: plaque is additive — Band entropy drops from 0.8 to 0.4") {
    assert(exact1c(Pos(0, 2)) < exact1b(Pos(0, 2)))
  }

  test("Fig. 1c: every cell is at most as informative as under the genuine FDs") {
    for (p <- inst.positions)
      assert(exact1c(p) <= exact1b(p) + 1e-12, s"at $p")
  }

  test("Fig. 1c: more cells are colored than in Fig. 1b") {
    val colored1b = inst.positions.count(p => exact1b(p) < 1.0)
    val colored1c = inst.positions.count(p => exact1c(p) < 1.0)
    assert(colored1c > colored1b)
  }
}
