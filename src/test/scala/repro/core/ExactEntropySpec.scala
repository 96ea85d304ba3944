package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ExactEntropySpec extends AnyFunSuite {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds = Vector(FD(Set(0), 2))
  private val closed = FDs.closure(fds)

  test("Example 3.4: INF((1,C)) = 0.875 via naive enumeration") {
    assert(math.abs(NaiveEntropy.compute(ex34, closed, Pos(0, 2)) - 0.875) < 1e-12)
  }

  test("Example 3.4: INF((3,C)) = 0.875 via naive enumeration") {
    assert(math.abs(NaiveEntropy.compute(ex34, closed, Pos(2, 2)) - 0.875) < 1e-12)
  }

  test("Example 3.4: full matrix matches the paper") {
    val expected = Map(
      Pos(0, 2) -> 0.875, Pos(2, 2) -> 0.875,
    ).withDefaultValue(1.0)
    val mat = NaiveEntropy.matrix(ex34, closed).get
    for (p <- ex34.positions)
      assert(math.abs(mat(p) - expected(p)) < 1e-12, s"at $p")
  }

  test("Example 3.4: viaClauses matches the naive value exactly") {
    for (p <- ex34.positions) {
      val n = NaiveEntropy.compute(ex34, closed, p)
      val c = ExactEntropy.viaClauses(Clauses.forPosition(ex34, closed, p))
      assert(math.abs(n - c) < 1e-12, s"at $p")
    }
  }

  test("Example 3.4: optimized result equals naive result") {
    val opt = ExactEntropy.optimized(ex34, fds)
    val nai = ExactEntropy.naive(ex34, fds)
    assert(!opt.aborted && !nai.aborted)
    for (p <- ex34.positions)
      assert(math.abs(opt.entropies(p) - nai.entropies(p)) < 1e-12, s"at $p")
  }

  test("viaClauses of an empty clause set is 1") {
    assert(ExactEntropy.viaClauses(Vector.empty) == 1.0)
  }

  test("viaClauses of a single 3-cell clause is 7/8") {
    val cls = Vector(Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)))
    assert(math.abs(ExactEntropy.viaClauses(cls) - 0.875) < 1e-12)
  }

  test("viaClauses of two disjoint 3-cell clauses is (7/8)^2") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)),
      Set(Pos(2, 0), Pos(3, 0), Pos(3, 2)),
    )
    assert(math.abs(ExactEntropy.viaClauses(cls) - 0.875 * 0.875) < 1e-12)
  }

  test("viaClauses of two pivot-sharing clauses is 25/32 (Example 1.1 shape)") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 1)),
      Set(Pos(0, 0), Pos(2, 0), Pos(2, 1)),
    )
    assert(math.abs(ExactEntropy.viaClauses(cls) - 25.0 / 32.0) < 1e-12)
  }

  test("viaClauses refuses oversized clause unions") {
    val big = Vector.tabulate(30)(i => Set(Pos(i, 0), Pos(i, 1)))
    assertThrows[IllegalArgumentException](ExactEntropy.viaClauses(big))
  }

  test("naive refuses oversized instances") {
    val big = Instance(Vector("A"), Vector.tabulate(40)(j => Vector(j)))
    assertThrows[IllegalArgumentException](NaiveEntropy.compute(big, closed, Pos(0, 0)))
  }

  test("naive with an expired budget aborts") {
    val res = ExactEntropy.naive(ex34, fds, budgetMs = 0L)
    assert(res.aborted)
  }

  test("optimized with an expired budget aborts unless everything is unique") {
    val res = ExactEntropy.optimized(ex34, fds, budgetMs = 0L)
    assert(res.aborted)
  }

  test("optimized on a redundancy-free instance is instant and all ones") {
    val free = Instance(Vector("A", "B"), Vector(Vector(1, 1), Vector(2, 2)))
    val res = ExactEntropy.optimized(free, Vector(FD(Set(0), 1)), budgetMs = 0L)
    assert(!res.aborted)
    assert(res.entropies.values.forall(_ == 1.0))
  }

  // Ground-truth equivalence: naive (full-instance enumeration) == clause
  // exact == optimized == the plaque pipeline, on randomized repaired
  // instances.
  for (seed <- 100 until 130) {
    test(s"naive ≡ viaClauses ≡ optimized (random instance, seed=$seed)") {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val opt = ExactEntropy.optimized(inst, fds)
      assert(!opt.aborted)
      val all = Clauses.forAllPositions(inst, closed)
      assert(all.values.forall(_.nonEmpty), s"empty clause set in $all")
      val res = PlaqueTest.runExact(inst, fds)
      assert(res.nonUnique == Uniqueness.nonUniquePositions(inst, closed))
      for (p <- inst.positions) {
        val n = NaiveEntropy.compute(inst, closed, p)
        val c = ExactEntropy.viaClauses(Clauses.forPosition(inst, closed, p))
        assert(math.abs(n - c) < 1e-12, s"naive=$n clause=$c at $p inst=$inst fds=$fds")
        assert(math.abs(n - opt.entropies(p)) < 1e-12, s"naive=$n opt=${opt.entropies(p)} at $p")
        assert(math.abs(n - res.entropy(p)) < 1e-12, s"naive=$n runExact=${res.entropy(p)} at $p")
      }
    }
  }

  test("clauseMatrix covers every position") {
    val mat = ExactEntropy.clauseMatrix(ex34, fds)
    assert(mat.keySet == ex34.positions.toSet)
    assert(math.abs(mat(Pos(0, 2)) - 0.875) < 1e-12)
  }
}
