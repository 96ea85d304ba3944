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
    assert(math.abs(ExactEntropy.compute(ex34, closed, Pos(0, 2)) - 0.875) < 1e-12)
  }

  test("Example 3.4: INF((3,C)) = 0.875 via naive enumeration") {
    assert(math.abs(ExactEntropy.compute(ex34, closed, Pos(2, 2)) - 0.875) < 1e-12)
  }

  test("Example 3.4: full matrix matches the paper") {
    val expected = Map(
      Pos(0, 2) -> 0.875, Pos(2, 2) -> 0.875,
    ).withDefaultValue(1.0)
    val mat = ExactEntropy.naive(ex34, fds).entropies
    for (p <- ex34.positions)
      assert(math.abs(mat(p) - expected(p)) < 1e-12, s"at $p")
  }

  test("Example 3.4: viaClauses matches the naive value exactly") {
    for (p <- ex34.positions) {
      val n = ExactEntropy.compute(ex34, closed, p)
      val c = TestGen.referenceViaClauses(TestGen.referenceClauses(ex34, closed, p))
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
    assert(TestGen.referenceViaClauses(Vector.empty) == 1.0)
  }

  test("viaClauses of a single 3-cell clause is 7/8") {
    val cls = Vector(Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)))
    assert(math.abs(TestGen.referenceViaClauses(cls) - 0.875) < 1e-12)
  }

  test("viaClauses of two disjoint 3-cell clauses is (7/8)^2") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)),
      Set(Pos(2, 0), Pos(3, 0), Pos(3, 2)),
    )
    assert(math.abs(TestGen.referenceViaClauses(cls) - 0.875 * 0.875) < 1e-12)
  }

  test("viaClauses of two pivot-sharing clauses is 25/32 (Example 1.1 shape)") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 1)),
      Set(Pos(0, 0), Pos(2, 0), Pos(2, 1)),
    )
    assert(math.abs(TestGen.referenceViaClauses(cls) - 25.0 / 32.0) < 1e-12)
  }

  test("viaClauses refuses oversized clause unions") {
    val big = Vector.tabulate(30)(i => Set(Pos(i, 0), Pos(i, 1)))
    assertThrows[IllegalArgumentException](TestGen.referenceViaClauses(big))
  }

  // Rows (0, MinValue), (0, MinValue), (1, MaxValue) under A → B: max + 1
  // would wrap to MinValue, which rows 0 and 1 hold.
  test("freshValue avoids Int.MaxValue + 1, so naive and runExact agree at the wrap") {
    val inst = Instance(Vector("A", "B"), Vector(Vector(0, Int.MinValue), Vector(0, Int.MinValue), Vector(1, Int.MaxValue)))
    val fresh = inst.freshValue(1)
    assert(!inst.columns(1).contains(fresh))
    val fds = Vector(FD(Set(0), 1))
    val naive = ExactEntropy.naive(inst, fds).entropies
    val exact = PlaqueTest.runExact(inst, fds)
    for (p <- inst.positions) assert(naive(p) == exact.entropy(p), s"at $p")
    assert(naive(Pos(0, 1)) == 0.875 && naive(Pos(1, 1)) == 0.875)
  }

  // The enumeration of `naive` and the per-class formula must agree bit for
  // bit, at the class representatives and so at every member.
  test("runExact is bit-equal to naive at every position (instanceWithFds seeds 0–399 of at most 16 cells)") {
    var reps = 0
    for (seed <- 0 until 400) {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      if (inst.nCells <= 16) {
        val closed = FDs.closure(fds)
        val res = PlaqueTest.runExact(inst, fds)
        for (p <- inst.positions) assert(res.entropy(p) == ExactEntropy.compute(inst, closed, p), s"seed $seed at $p")
        reps += res.classes
      }
    }
    assert(reps > 300, s"only $reps representatives")
  }

  test("naive refuses oversized instances") {
    val big = Instance(Vector("A"), Vector.tabulate(63)(j => Vector(j)))
    assertThrows[IllegalArgumentException](ExactEntropy.compute(big, closed, Pos(0, 0)))
  }

  test("naive reports a >62-cell instance as Abort.Oversized") {
    val wide = Instance(Vector("A", "B"), Vector.fill(32)(Vector(1, 2)))
    val res = ExactEntropy.naive(wide, Vector(FD(Set(0), 1)))
    assert(res.abort == Some(ExactEntropy.Abort.Oversized(64)) && res.entropies.isEmpty)
  }

  test("naive with an expired budget reports Abort.Budget with no position computed") {
    val res = ExactEntropy.naive(ex34, fds, budgetMs = 0L)
    assert(res.abort == Some(ExactEntropy.Abort.Budget) && res.entropies.isEmpty)
  }

  test("optimized with an expired budget keeps exactly the unique cells at 1.0") {
    val res = ExactEntropy.optimized(ex34, fds, budgetMs = 0L)
    assert(res.abort == Some(ExactEntropy.Abort.Budget))
    val unique = ex34.positions.toSet -- Uniqueness.nonUniquePositions(ex34, closed)
    assert(res.entropies == unique.map(_ -> 1.0).toMap)
  }

  test("naive with an expired budget aborts") {
    val res = ExactEntropy.naive(ex34, fds, budgetMs = 0L)
    assert(res.aborted)
  }

  test("optimized with an expired budget aborts unless everything is unique") {
    val res = ExactEntropy.optimized(ex34, fds, budgetMs = 0L)
    assert(res.aborted)
  }

  test("optimized reports a budget abort as Abort.Budget") {
    val res = ExactEntropy.optimized(ex34, fds, budgetMs = 0L)
    assert(res.aborted && res.abort == Some(ExactEntropy.Abort.Budget))
  }

  test("optimized reports a refused >62-cell subtable as Abort.Oversized") {
    // 32 rows sharing A: every B cell is non-unique, so I(J0, K0) is 32 × 2.
    val wide = Instance(Vector("A", "B"), Vector.fill(32)(Vector(1, 2)))
    val res = ExactEntropy.optimized(wide, Vector(FD(Set(0), 1)))
    assert(res.aborted && res.abort == Some(ExactEntropy.Abort.Oversized(64)))
  }

  // Example 3.4 with A -> D added, which rows 0 and 2 violate.
  private val violated = Vector(FD(Set(0), 2), FD(Set(0), 3))

  private def assertRejected(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage.contains("A -> D") && e.getMessage.contains("rows 0 and 2"), e.getMessage)
  }

  test("optimized rejects an FD that does not hold, naming it and two rows") {
    assertRejected(ExactEntropy.optimized(ex34, violated))
  }

  test("naive rejects an FD that does not hold, naming it and two rows") {
    assertRejected(ExactEntropy.naive(ex34, violated))
  }

  test("optimized on a redundancy-free instance is instant and all ones") {
    val free = Instance(Vector("A", "B"), Vector(Vector(1, 1), Vector(2, 2)))
    val res = ExactEntropy.optimized(free, Vector(FD(Set(0), 1)), budgetMs = 0L)
    assert(!res.aborted)
    assert(res.entropies.values.forall(_ == 1.0))
  }

  // Ground-truth equivalence: naive (full-instance enumeration) == the clause
  // reference == optimized == runExact, on randomized repaired
  // instances. The wide-FD inputs add empty-LHS FDs, constant columns and
  // LHSs of up to 4 columns; every position is probed, so `p` also sits at
  // the first and the last cell, the edges of the kernel's bit insertion.
  private val wideSeeds = (0 until 60).filter(TestGen.instanceWithWideFds(_)._1.nCells <= 14)
  private val randomInputs =
    (100 until 130).map(seed => s"random instance, seed=$seed" -> TestGen.instanceWithFds(seed)) ++
      wideSeeds.map(seed => s"wide-FD instance, seed=$seed" -> TestGen.instanceWithWideFds(seed))

  test("the wide-FD inputs have empty-LHS FDs, constant columns and 3- or 4-column LHSs") {
    val wide = wideSeeds.map(TestGen.instanceWithWideFds(_))
    assert(wide.size >= 15, s"${wide.size} wide-FD inputs")
    assert(wide.exists(_._2.exists(_.lhs.isEmpty)), "empty LHS")
    assert(wide.exists { case (inst, _) => (0 until inst.arity).exists(k => inst.columns(k).distinct.length == 1) },
      "constant column")
    assert(wide.exists(_._2.exists(_.lhs.size >= 3)), "LHS of 3+ columns")
  }

  for ((name, (inst, fds)) <- randomInputs) {
    test(s"naive ≡ viaClauses ≡ optimized ($name)") {
      val closed = FDs.closure(fds)
      val opt = ExactEntropy.optimized(inst, fds)
      assert(!opt.aborted)
      val all = Clauses.forAllPositions(inst, closed)
      assert(all.values.forall(_.nonEmpty), s"empty clause set in $all")
      val res = PlaqueTest.runExact(inst, fds)
      assert(res.nonUnique == Uniqueness.nonUniquePositions(inst, closed))
      for (p <- inst.positions) {
        val n = ExactEntropy.compute(inst, closed, p)
        val c = TestGen.referenceViaClauses(TestGen.referenceClauses(inst, closed, p))
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
