package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FDSpec extends AnyFunSuite {
  private val attrs = Vector("A", "B", "C", "D")

  test("byName resolves attribute names to indices") {
    val fds = FDs.byName(attrs, Seq(Seq("A") -> "B", Seq("A", "C") -> "D"))
    assert(fds == Vector(FD(Set(0), 1), FD(Set(0, 2), 3)))
  }

  test("byName rejects unknown attributes") {
    assertThrows[IllegalArgumentException](FDs.byName(attrs, Seq(Seq("Z") -> "B")))
  }

  test("trivial FD detection") {
    assert(FD(Set(0, 1), 1).trivial)
    assert(!FD(Set(0, 1), 2).trivial)
    assert(!FD(Set.empty[Int], 2).trivial)
  }

  test("render uses attribute names") {
    assert(FD(Set(0, 2), 3).render(attrs) == "A, C -> D")
  }

  test("minimize drops trivial FDs") {
    assert(FDs.minimize(Seq(FD(Set(1), 1))).isEmpty)
  }

  test("minimize drops duplicates") {
    assert(FDs.minimize(Seq(FD(Set(0), 1), FD(Set(0), 1))).size == 1)
  }

  test("minimize drops LHS-superset FDs with the same RHS") {
    val res = FDs.minimize(Seq(FD(Set(0), 1), FD(Set(0, 2), 1)))
    assert(res == Vector(FD(Set(0), 1)))
  }

  test("minimize keeps superset LHS for a different RHS") {
    val res = FDs.minimize(Seq(FD(Set(0), 1), FD(Set(0, 2), 3)))
    assert(res.toSet == Set(FD(Set(0), 1), FD(Set(0, 2), 3)))
  }

  test("closure derives pure transitivity A->B, B->C => A->C") {
    val closed = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1), 2)))
    assert(closed.contains(FD(Set(0), 2)))
    assert(closed.size == 3)
  }

  test("closure derives pseudo-transitivity A->B, BC->D => AC->D") {
    val closed = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1, 2), 3)))
    assert(closed.contains(FD(Set(0, 2), 3)))
  }

  test("closure of a cycle A->B, B->A adds nothing non-trivial") {
    val closed = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1), 0)))
    assert(closed.toSet == Set(FD(Set(0), 1), FD(Set(1), 0)))
  }

  test("closure subsumes derived supersets") {
    // A->B, B->C, A->C given: closure stays minimal.
    val closed = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1), 2), FD(Set(0), 2)))
    assert(closed.size == 3)
  }

  test("closure of a chain of length 4 contains all descendants") {
    val closed = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1), 2), FD(Set(2), 3)))
    assert(closed.toSet == Set(
      FD(Set(0), 1), FD(Set(1), 2), FD(Set(2), 3),
      FD(Set(0), 2), FD(Set(0), 3), FD(Set(1), 3),
    ))
  }

  test("closure is idempotent") {
    val once = FDs.closure(Seq(FD(Set(0), 1), FD(Set(1), 2), FD(Set(1, 2), 3)))
    assert(FDs.closure(once).toSet == once.toSet)
  }

  test("closure of the empty set is empty") {
    assert(FDs.closure(Nil).isEmpty)
  }

  test("closure keeps empty-LHS (constant-column) FDs") {
    val closed = FDs.closure(Seq(FD(Set.empty[Int], 1), FD(Set(1), 2)))
    assert(closed.contains(FD(Set.empty[Int], 2))) // pseudo-transitivity with empty LHS
  }
}
