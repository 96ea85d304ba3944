package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** `⊨` on Example 3.4: Definition 2.3 (no variables) through
  * [[FDs.violation]], Definition 2.4 (variables and a fresh value at `p`)
  * through `ExactEntropy.Kernel.fulfills`, the check of Table 1's
  * enumeration, and that check against the literal `TestGen.referenceFulfills`.
  */
class FulfillsSpec extends AnyFunSuite {

  // Example 3.4's instance: F = {A -> C}.
  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val aToC = FD(Set(0), 2)

  private def holds(inst: Instance, fd: FD): Boolean = FDs.violation(inst, fd).isEmpty

  /** Does `inst` with variables at `vars` and a fresh value at `p` fulfil `fds`? */
  private def fulfills(inst: Instance, fds: Seq[FD], vars: Set[Pos], p: Pos): Boolean = {
    val bits = vars.foldLeft(0L)((acc, q) => acc | 1L << (q.row * inst.arity + q.col))
    new ExactEntropy.Kernel(inst, fds, p).fulfills(bits)
  }

  test("holds on a fulfilled FD") {
    assert(holds(ex34, aToC))
  }

  test("holds detects violation") {
    val bad = Instance(ex34.attrs, ex34.rows.updated(2, Vector(7, 2, 9, 6)))
    assert(!holds(bad, aToC))
  }

  test("trivial FDs always hold") {
    assert(holds(ex34, FD(Set(2), 2)))
    assert(holds(ex34, FD(Set(0, 2), 2)))
  }

  test("empty-LHS FD holds iff the column is constant") {
    assert(holds(ex34, FD(Set.empty[Int], 1))) // B constant (2,2,2)
    assert(!holds(ex34, FD(Set.empty[Int], 0)))
  }

  test("inserting a fresh value at the RHS of a duplicated group violates") {
    assert(!fulfills(ex34, Seq(aToC), Set.empty, Pos(0, 2)))
  }

  test("inserting a fresh value at a unique-group RHS keeps the FD") {
    // Row 1 has A=5, a singleton group.
    assert(fulfills(ex34, Seq(aToC), Set.empty, Pos(1, 2)))
  }

  test("variables on the violating row's LHS lift the constraint") {
    // Deleting the other group member's A cell breaks the witness.
    assert(fulfills(ex34, Seq(aToC), Set(Pos(2, 0)), Pos(0, 2)))
  }

  test("variables on the probed row's LHS lift the constraint") {
    assert(fulfills(ex34, Seq(aToC), Set(Pos(0, 0)), Pos(0, 2)))
  }

  test("variables on the witness RHS lift the constraint") {
    assert(fulfills(ex34, Seq(aToC), Set(Pos(2, 2)), Pos(0, 2)))
  }

  test("unrelated variables do not lift the constraint") {
    assert(!fulfills(ex34, Seq(aToC), Set(Pos(1, 0), Pos(1, 3), Pos(0, 1)), Pos(0, 2)))
  }

  test("fresh value on an FD LHS never creates a violation") {
    // FD C -> D would be violated only through equal C values; fresh C at
    // (0,2) collides with nobody.
    val cToD = FD(Set(2), 3)
    val inst = Instance(ex34.attrs, Vector(Vector(7, 2, 8, 4), Vector(5, 2, 9, 6)))
    assert(holds(inst, cToD))
    assert(fulfills(inst, Seq(cToD), Set.empty, Pos(0, 2)))
  }

  test("holdsAll checks every FD") {
    assert(Seq(aToC, FD(Set.empty[Int], 1)).forall(holds(ex34, _)))
    assert(!Seq(aToC, FD(Set(1), 0)).forall(holds(ex34, _)))
  }

  test("check over multiple FDs requires all of them") {
    val fds = Seq(aToC, FD(Set(1), 2)) // B -> C also holds (B,C constant-ish)
    assert(fds.forall(holds(ex34, _)))
    // Fresh C at row 1: A-group {5} is singleton but B-group is everyone.
    assert(!fulfills(ex34, fds, Set.empty, Pos(1, 2)))
  }

  test("Kernel.fulfills ≡ referenceFulfills (300 random instances × 30 (p, Q))") {
    var fulfilled = 0
    for (seed <- 0 until 300) {
      val (inst, fds) = TestGen.instanceWithFds(seed, maxRows = 5)
      val closed = FDs.closure(fds)
      val rng = new Random(seed * 17 + 3)
      for (_ <- 0 until 30) {
        val p = inst.positions(rng.nextInt(inst.nCells))
        val q = TestGen.randomQ(inst, p, rng)
        val want = TestGen.referenceFulfills(inst, closed, q, Map(p -> inst.freshValue(p.col)))
        assert(fulfills(inst, closed, q, p) == want, s"seed=$seed inst=$inst fds=$fds p=$p q=$q")
        if (want) fulfilled += 1
      }
    }
    // Both outcomes occur (580 violations), so neither side passes by being constant.
    assert(fulfilled > 450 && 9000 - fulfilled > 450, s"$fulfilled of 9000 fulfilled")
  }
}
