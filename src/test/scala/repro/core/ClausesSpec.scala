package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class ClausesSpec extends AnyFunSuite {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds = Vector(FD(Set(0), 2)) // A -> C

  private def clausesAt(inst: Instance, fds: Seq[FD], p: Pos): Vector[Set[Pos]] =
    Clauses.forAllPositions(inst, fds).getOrElse(p, Vector.empty)

  test("witness clause for Example 3.4, position (0,C)") {
    val cls = clausesAt(ex34, fds, Pos(0, 2))
    assert(cls == Vector(Set(Pos(0, 0), Pos(2, 0), Pos(2, 2))))
  }

  test("no clauses for a unique position") {
    assert(clausesAt(ex34, fds, Pos(1, 2)).isEmpty)
  }

  test("no clauses for an attribute without an FD RHS") {
    assert(clausesAt(ex34, fds, Pos(0, 0)).isEmpty)
    assert(clausesAt(ex34, fds, Pos(0, 3)).isEmpty)
  }

  test("trivial FDs generate no clauses") {
    assert(Clauses.forAllPositions(ex34, Vector(FD(Set(2), 2))).isEmpty)
  }

  test("empty-LHS FD clauses contain only the witness RHS cell") {
    // B is constant: {} -> B has every other row as witness.
    val cls = clausesAt(ex34, Vector(FD(Set.empty[Int], 1)), Pos(0, 1))
    assert(cls.toSet == Set(Set(Pos(1, 1)), Set(Pos(2, 1))))
  }

  test("minimize removes duplicate clauses") {
    val c = Set(Pos(0, 0), Pos(1, 0))
    assert(TestGen.minimizeClauses(Seq(c, c)) == Vector(c))
  }

  test("minimize removes superset clauses") {
    val small = Set(Pos(0, 0))
    val big = Set(Pos(0, 0), Pos(1, 1))
    assert(TestGen.minimizeClauses(Seq(big, small)) == Vector(small))
  }

  test("eval: empty clause set is always fulfilled") {
    assert(TestGen.evalClauses(Vector.empty, Set.empty))
  }

  test("eval requires every clause hit") {
    val cls = Vector(Set(Pos(0, 0)), Set(Pos(1, 1)))
    assert(!TestGen.evalClauses(cls, Set(Pos(0, 0))))
    assert(TestGen.evalClauses(cls, Set(Pos(0, 0), Pos(1, 1))))
  }

  // `forPosition` in these names is `TestGen.referenceClauses`. `==` pins the clause
  // order, on which `MonteCarlo.mask`'s cell numbering and so the MC streams depend.
  test("forAllPositions agrees with forPosition everywhere (Example 3.4)") {
    val all = Clauses.forAllPositions(ex34, fds)
    for (p <- ex34.positions) {
      assert(all.getOrElse(p, Vector.empty) == TestGen.referenceClauses(ex34, fds, p), s"at $p")
    }
  }

  test("forAllPositions agrees with forPosition on the CD example") {
    val inst = Instance.encode(
      Seq("ID", "Album", "Band", "BYear", "RYear", "Track", "Title"),
      Seq(
        Seq(1, "NTK", "Ana", 1999, 2000, 1, "t1"),
        Seq(1, "NTK", "Ana", 1999, 2000, 2, "t2"),
        Seq(1, "NTK", "Ana", 1999, 2000, 3, "t3"),
        Seq(2, "WYWH", "PF", 1965, 1975, 1, "t4"),
        Seq(3, "FoN", "Ana", 1999, 2001, 1, "t5"),
      ))
    val cd = FDs.closure(FDs.byName(inst.attrs, Seq(
      Seq("ID") -> "Album", Seq("ID") -> "Band", Seq("ID") -> "BYear",
      Seq("ID") -> "RYear", Seq("Band") -> "BYear", Seq("ID", "Track") -> "Title")))
    val all = Clauses.forAllPositions(inst, cd)
    for (p <- inst.positions)
      assert(all.getOrElse(p, Vector.empty) == TestGen.referenceClauses(inst, cd, p), s"at $p")
  }

  test("on closed FDs, forAllPositions ≡ referenceClauses with duplicate-free, non-nested clauses") {
    var nonUnique = 0
    for (seed <- 0L until 400L) {
      val (inst, fds) = TestGen.instanceWithFds(seed, maxRows = 6, maxCols = 5)
      val closed = FDs.closure(fds)
      val all = Clauses.forAllPositions(inst, closed)
      for (p <- inst.positions)
        assert(all.getOrElse(p, Vector.empty) == TestGen.referenceClauses(inst, closed, p), s"seed $seed at $p")
      for ((p, cls) <- all; i <- cls.indices; k <- cls.indices if i != k)
        assert(!cls(i).subsetOf(cls(k)), s"seed $seed at $p: ${cls(i)} ⊆ ${cls(k)}")
      nonUnique += all.size
    }
    assert(nonUnique > 1000)
  }

  test("forAllPositions ≡ referenceClauses, with a key exactly at the positions that have a clause (400 wide seeds)") {
    var emptyLhs = 0
    var constantCols = 0
    var wideLhs = 0
    var nonUnique = 0
    for (seed <- 0L until 400L) {
      val (inst, fds) = TestGen.instanceWithWideFds(seed)
      val closed = FDs.closure(fds)
      val view = Clauses.forAllPositions(inst, closed)
      for (p <- inst.positions) {
        val want = TestGen.referenceClauses(inst, closed, p)
        assert(view.getOrElse(p, Vector.empty) == want, s"seed $seed at $p")
        assert(view.contains(p) == want.nonEmpty, s"seed $seed at $p")
      }
      emptyLhs += closed.count(_.lhs.isEmpty)
      constantCols += inst.attrs.indices.count(k => inst.rows.map(_(k)).distinct.size == 1)
      wideLhs += closed.count(_.lhs.size > 2)
      nonUnique += view.size
    }
    assert(emptyLhs > 50 && constantCols > 100 && wideLhs > 50 && nonUnique > 2000,
      s"empty LHSs $emptyLhs, constant columns $constantCols, LHSs over 2 columns $wideLhs, non-unique $nonUnique")
  }

  test("mask numbers forAllPositions' cells first-seen, each clause's cells in ascending (row, col) order") {
    // A, B -> C with witness rows 0 and 2 of row 1: the lower row's cells come first.
    val inst = Instance(Vector("A", "B", "C"), Vector(Vector(1, 1, 5), Vector(1, 1, 5), Vector(1, 1, 5)))
    val cls = Clauses.forAllPositions(inst, Vector(FD(Set(0, 1), 2)))(Pos(1, 2))
    // Clause 1 (witness 0): (0,0) (0,1) (0,2) (1,0) (1,1); clause 2 (witness 2) adds (2,0) (2,1) (2,2).
    val cells = Seq((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)).map { case (j, k) => Pos(j, k) }
    assert(cls == Vector(cells.take(5).toSet, cells.drop(3).toSet))
    val mc = MonteCarlo.mask(cls)
    assert(mc.nVars == 8)
    assert(mc.vars.map(_.toSeq).toSeq == Seq(Seq(0, 1, 2, 3, 4), Seq(3, 4, 5, 6, 7)))
  }

  test("on raw FDs a superset clause may appear, and minimizing it away keeps X(Q)") {
    // A -> C and {A, B} -> C: the second FD's clause contains the first's.
    val raw = Vector(FD(Set(0), 2), FD(Set(0, 1), 2))
    val cls = Clauses.forAllPositions(ex34, raw)(Pos(0, 2))
    assert(cls.size == 2 && cls(0).subsetOf(cls(1)))
    assert(TestGen.minimizeClauses(cls) == TestGen.referenceClauses(ex34, FDs.closure(raw), Pos(0, 2)))
    for (q <- cls(1).subsets())
      assert(TestGen.evalClauses(cls, q) == TestGen.evalClauses(cls.take(1), q), s"q=$q")
  }

  // The load-bearing equivalence: clause evaluation == the literal
  // fulfills-with-variables semantics, on randomized repaired instances.
  for (seed <- 0 until 40) {
    test(s"clause eval ≡ Fulfills.check with fresh value (random instance, seed=$seed)") {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val all = Clauses.forAllPositions(inst, closed)
      val rng = new Random(seed * 31 + 7)
      for (_ <- 0 until 20) {
        val p = inst.positions(rng.nextInt(inst.positions.size))
        val q = TestGen.randomQ(inst, p, rng)
        val cls = all.getOrElse(p, Vector.empty)
        val fresh = inst.freshValue(p.col)
        val viaClauses = TestGen.evalClauses(cls, q)
        val viaFulfills = TestGen.referenceFulfills(inst, closed, q, Map(p -> fresh))
        assert(viaClauses == viaFulfills,
          s"inst=$inst fds=$fds p=$p q=$q clauses=$cls")
      }
    }
  }
}
