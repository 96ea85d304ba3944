package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec

/** Every estimator on degenerate instances: duplicate rows, a constant
  * column under an empty-LHS FD, arity 1 and a single row. The three exact
  * paths agree to 1e-12, MC (`run`) is within its (n, δ = 1e-6) accuracy of
  * them, and every unique cell is exactly 1.0 in each.
  */
class EstimatorEdgeCasesSpec extends AnyFunSuite with SparkSpec {

  private val Iters = 100000L
  private val Eps = MonteCarlo.accuracy(Iters, 1e-6)

  private def rows(vs: Vector[Int]*): Vector[Vector[Int]] = vs.toVector

  private val cases: Seq[(String, Instance, Vector[FD])] = Seq(
    ("duplicate rows",
      Instance(Vector("A", "B", "C"), rows(Vector(0, 0, 0), Vector(0, 0, 0), Vector(1, 2, 0), Vector(0, 0, 0))),
      Vector(FD(Set(0), 1))),
    ("constant column with ∅ → B",
      Instance(Vector("A", "B"), rows(Vector(0, 5), Vector(1, 5), Vector(2, 5))),
      Vector(FD(Set.empty, 1))),
    ("constant column with ∅ → C beside A → B",
      Instance(Vector("A", "B", "C"), rows(Vector(0, 1, 9), Vector(0, 1, 9), Vector(2, 3, 9))),
      Vector(FD(Set.empty, 2), FD(Set(0), 1))),
    ("arity 1, constant, ∅ → A",
      Instance(Vector("A"), rows(Vector(7), Vector(7), Vector(7), Vector(7))),
      Vector(FD(Set.empty, 0))),
    ("arity 1, no FD",
      Instance(Vector("A"), rows(Vector(1), Vector(1), Vector(2))),
      Vector.empty),
    ("single row",
      Instance(Vector("A", "B", "C"), rows(Vector(4, 5, 6))),
      Vector(FD(Set(0), 1), FD(Set.empty, 2))),
  )

  for ((name, inst, fds) <- cases) test(s"naive ≡ optimized ≡ runExact ≈ matrixLocal: $name") {
    val naive = ExactEntropy.naive(inst, fds)
    val optimized = ExactEntropy.optimized(inst, fds)
    assert(!naive.aborted && !optimized.aborted)
    val exact = PlaqueTest.runExact(inst, fds)
    val mc = PlaqueTest.run(spark, inst, fds, Iters, 5).byPosition
    val unique = inst.positions.toSet -- Uniqueness.nonUniquePositions(inst, FDs.closure(fds))
    for (p <- inst.positions) {
      val v = naive.entropies(p)
      assert(math.abs(optimized.entropies(p) - v) < 1e-12, s"optimized at $p")
      assert(math.abs(exact.entropy(p) - v) < 1e-12, s"runExact at $p")
      assert(math.abs(mc(p) - v) <= Eps, s"run at $p: ${mc(p)} vs $v")
      if (unique(p))
        assert(Seq(v, optimized.entropies(p), exact.entropy(p), mc(p)).forall(_ == 1.0), s"unique $p")
    }
  }

  test("closed forms: ∅ → B over k rows gives ½^(k−1); duplicate rows under A → B give ½ + ½·(¾)^(k−1)") {
    val const = PlaqueTest.runExact(cases(1)._2, cases(1)._3)
    for (j <- 0 until 3) assert(math.abs(const.entropy(Pos(j, 1)) - 0.25) < 1e-12)
    val arity1 = PlaqueTest.runExact(cases(3)._2, cases(3)._3)
    for (j <- 0 until 4) assert(math.abs(arity1.entropy(Pos(j, 0)) - 0.125) < 1e-12)
    val dup = PlaqueTest.runExact(cases.head._2, cases.head._3)
    for (j <- Seq(0, 1, 3)) assert(math.abs(dup.entropy(Pos(j, 1)) - (0.5 + 0.5 * 0.75 * 0.75)) < 1e-12)
  }
}
