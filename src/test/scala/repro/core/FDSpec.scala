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

  test("render prints an empty LHS as ∅, also in requireHolds' error") {
    assert(FD(Set.empty, 1).render(attrs) == "∅ -> B")
    val inst = Instance(Vector("A", "B"), Vector(Vector(1, 5), Vector(2, 6)))
    val e = intercept[IllegalArgumentException](FDs.requireHolds(inst, Seq(FD(Set.empty, 1))))
    assert(e.getMessage == "FD ∅ -> B does not hold: rows 0 and 1 agree on its LHS but differ on B")
  }

  test("minimize drops trivial FDs") {
    assert(TestGen.minimizeFds(Seq(FD(Set(1), 1))).isEmpty)
  }

  test("minimize drops duplicates") {
    assert(TestGen.minimizeFds(Seq(FD(Set(0), 1), FD(Set(0), 1))).size == 1)
  }

  test("minimize drops LHS-superset FDs with the same RHS") {
    val res = TestGen.minimizeFds(Seq(FD(Set(0), 1), FD(Set(0, 2), 1)))
    assert(res == Vector(FD(Set(0), 1)))
  }

  test("minimize keeps superset LHS for a different RHS") {
    val res = TestGen.minimizeFds(Seq(FD(Set(0), 1), FD(Set(0, 2), 3)))
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

  test("closure rejects column indices outside [0, 64)") {
    val e = intercept[IllegalArgumentException](FDs.closure(Seq(FD(Set(64), 0))))
    assert(e.getMessage.contains("FD(Set(64),0)"))
    assertThrows[IllegalArgumentException](FDs.closure(Seq(FD(Set(0), 64))))
    assertThrows[IllegalArgumentException](FDs.closure(Seq(FD(Set(-1), 0))))
  }

  test("closure keeps column 63") {
    assert(FDs.closure(Seq(FD(Set(63), 0), FD(Set(0), 1))) ==
      Vector(FD(Set(63), 0), FD(Set(0), 1), FD(Set(63), 1)))
  }

  /** `X⁺` under `fds`, as a bitmask over columns. */
  private def attrClosure(fds: Seq[FD], x: Int): Int = {
    var c = x
    var grew = true
    while (grew) {
      grew = false
      for (f <- fds if f.lhs.forall(a => (c & 1 << a) != 0) && (c & 1 << f.rhs) == 0) {
        c |= 1 << f.rhs
        grew = true
      }
    }
    c
  }

  test("closure ≡ referenceClosure on 2,000 random FD sets, and ≡ Armstrong semantics for arity ≤ 6") {
    var checkedSemantics = 0
    var derivedNew = 0
    for (seed <- 0L until 2000L) {
      val (arity, fds) = TestGen.fdSet(seed)
      val closed = FDs.closure(fds)
      assert(closed == TestGen.referenceClosure(fds), s"seed $seed: $fds")
      if (closed.size != TestGen.minimizeFds(fds).size) derivedNew += 1
      if (arity <= 6) {
        def determines(x: Int, a: Int) = (attrClosure(fds, x) & 1 << a) != 0
        val minimal = for {
          x <- 0 until 1 << arity
          a <- 0 until arity
          if (x & 1 << a) == 0 && determines(x, a)
          if (0 until arity).forall(b => (x & 1 << b) == 0 || !determines(x & ~(1 << b), a))
        } yield FD((0 until arity).filter(b => (x & 1 << b) != 0).toSet, a)
        for (f <- closed) assert(minimal.contains(f), s"seed $seed: $f is not a minimal implied FD of $fds")
        for (f <- minimal) assert(closed.contains(f), s"seed $seed: $f is implied by $fds but missing")
        checkedSemantics += 1
      }
    }
    assert(checkedSemantics > 1000 && derivedNew > 200, s"$checkedSemantics, $derivedNew") // 1431, 358
  }

  test("violation names two rows that agree on the LHS and differ on the RHS") {
    val inst = Instance(Vector("A", "B", "C"), Vector(Vector(1, 5, 0), Vector(2, 6, 0), Vector(1, 7, 0)))
    assert(FDs.violation(inst, FD(Set(0), 1)) == Some((0, 2)))
    assert(FDs.violation(inst, FD(Set.empty[Int], 1)) == Some((0, 1)))
    assert(FDs.violation(inst, FD(Set(1), 0)).isEmpty)
    assert(FDs.violation(inst, FD(Set.empty[Int], 2)).isEmpty)
    assert(FDs.violation(inst, FD(Set(0, 1), 1)).isEmpty) // trivial
  }

  test("violation ≡ referenceViolation (same rows) for every LHS and RHS on wide random instances") {
    var found, clean = 0
    for (seed <- 0 until 400) {
      val (inst, _) = TestGen.instanceWithWideFds(seed)
      for (l <- 0 until 1 << inst.arity; b <- 0 until inst.arity) {
        val fd = FD((0 until inst.arity).filter(a => (l & 1 << a) != 0).toSet, b)
        val got = FDs.violation(inst, fd)
        assert(got == TestGen.referenceViolation(inst, fd), s"seed $seed: $fd on $inst")
        if (got.isEmpty) clean += 1 else found += 1
      }
    }
    assert(found > 1000 && clean > 1000, s"$found, $clean")
  }

  test("one violations checker ≡ referenceViolation for every FD of an instance, in random order") {
    var shared = 0
    for (seed <- 0 until 100) {
      val (inst, _) = TestGen.instanceWithWideFds(seed)
      val fds = for (l <- 0 until 1 << inst.arity; b <- 0 until inst.arity)
        yield FD((0 until inst.arity).filter(a => (l & 1 << a) != 0).toSet, b)
      val violation = FDs.violations(inst)
      for (fd <- new scala.util.Random(seed).shuffle(fds)) {
        assert(violation(fd) == TestGen.referenceViolation(inst, fd), s"seed $seed: $fd on $inst")
        shared += 1
      }
    }
    assert(shared > 10000, s"$shared")
  }
}
