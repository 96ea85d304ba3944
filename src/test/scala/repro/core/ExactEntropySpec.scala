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
      val c = TestGen.viaClauses(TestGen.referenceClauses(ex34, closed, p))
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
    assert(TestGen.viaClauses(Vector.empty) == 1.0)
  }

  test("viaClauses of a single 3-cell clause is 7/8") {
    val cls = Vector(Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)))
    assert(math.abs(TestGen.viaClauses(cls) - 0.875) < 1e-12)
  }

  test("viaClauses of two disjoint 3-cell clauses is (7/8)^2") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 2)),
      Set(Pos(2, 0), Pos(3, 0), Pos(3, 2)),
    )
    assert(math.abs(TestGen.viaClauses(cls) - 0.875 * 0.875) < 1e-12)
  }

  test("viaClauses of two pivot-sharing clauses is 25/32 (Example 1.1 shape)") {
    val cls = Vector(
      Set(Pos(0, 0), Pos(1, 0), Pos(1, 1)),
      Set(Pos(0, 0), Pos(2, 0), Pos(2, 1)),
    )
    assert(math.abs(TestGen.viaClauses(cls) - 25.0 / 32.0) < 1e-12)
  }

  test("viaClauses refuses oversized clause unions") {
    val big = Vector.tabulate(30)(i => Set(Pos(i, 0), Pos(i, 1)))
    assertThrows[IllegalArgumentException](TestGen.viaClauses(big))
  }

  test("viaClauses accepts a 26-cell union and refuses a 27-cell one") {
    // 13 disjoint 2-cell clauses: 3^13 of the 2^26 subsets hit every clause.
    val pairs = Vector.tabulate(13)(i => Set(Pos(i, 0), Pos(i, 1)))
    assert(TestGen.viaClauses(pairs) == 1594323.0 / (1L << 26))
    assert(TestGen.referenceViaClauses(pairs) == 1594323.0 / (1L << 26))
    val e = intercept[IllegalArgumentException](TestGen.viaClauses(pairs :+ Set(Pos(13, 0))))
    assert(e.getMessage.contains("27 cells"), e.getMessage)
  }

  // The truth-table kernel against the subset-at-a-time loop it replaced:
  // every union size up to 20 cells, so every partial word (n < 6), one full
  // word (n = 6) and several words (n ≥ 7).
  for (n <- 0 to 20) {
    test(s"viaClauses ≡ referenceViaClauses on random clause sets with a $n-cell union") {
      for (seed <- 0 until 25) {
        val cls = TestGen.clauseSet(n, 1000L * n + seed)
        assert(MonteCarlo.mask(cls).nVars == n)
        assert(TestGen.viaClauses(cls) == TestGen.referenceViaClauses(cls), s"seed $seed: $cls")
      }
    }
  }

  test("random clause sets include low-only, high-only, mixed and duplicated clauses") {
    val sets = for (n <- 0 to 20; seed <- 0 until 25) yield TestGen.clauseSet(n, 1000L * n + seed)
    def kinds(cls: Vector[Set[Pos]]): Seq[Long] =
      MonteCarlo.mask(cls).vars.toSeq.map(_.foldLeft(0L)((acc, v) => acc | 1L << v))
    val bigger = sets.filter(cls => MonteCarlo.mask(cls).nVars > 6)
    assert(bigger.count(kinds(_).exists(m => m != 0L && (m & ~63L) == 0L)) > 50, "low-only")
    assert(bigger.count(kinds(_).exists(m => (m & 63L) == 0L)) > 50, "high-only")
    assert(bigger.count(kinds(_).exists(m => (m & 63L) != 0L && (m & ~63L) != 0L)) > 50, "mixed")
    assert(sets.count(cls => cls.distinct.size < cls.size) > 50, "duplicated")
  }

  test("viaClauses ≡ referenceViaClauses on low-only, high-only and duplicated clauses") {
    val c = Vector.tabulate(16)(Pos(_, 0))
    val low = Vector(Set(c(0), c(1)), Set(c(2)), Set(c(3), c(4), c(5)), Set(c(1), c(3)))
    val cases = Vector(
      low,
      low.take(2),
      low ++ low,
      low :+ Set(c(6), c(7)) :+ Set(c(8)) :+ Set(c(9), c(10), c(11)),
      low :+ Set(c(6), c(15)) :+ Set(c(6), c(15)) :+ Set(c(12), c(13), c(14)),
      Vector(Set(c(0), c(6)), Set(c(1), c(7)), Set(c(2), c(3), c(4), c(5)), Set(c(8)), Set(c(8))),
    )
    for (cls <- cases) {
      assert(TestGen.viaClauses(cls) == TestGen.referenceViaClauses(cls), s"$cls")
      assert(TestGen.viaClauses(cls) == TestGen.viaClauses(TestGen.minimizeClauses(cls)))
    }
    // Every clause of `low` lowers to cells 0–5, the appended ones to cells ≥ 6.
    val v = MonteCarlo.mask(cases(3)).vars
    assert(v.take(4).forall(_.forall(_ < 6)) && v.drop(4).forall(_.forall(_ >= 6)))
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

  // Ground-truth equivalence: naive (full-instance enumeration) == clause
  // exact == optimized == the plaque pipeline, on randomized repaired
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
        val c = TestGen.viaClauses(TestGen.referenceClauses(inst, closed, p))
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
