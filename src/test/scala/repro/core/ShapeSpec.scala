package repro.core

import scala.collection.immutable.ArraySeq

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.{Experiments, Fig3Exp}

/** Clause shapes (the `TestGen.shapes` oracle), the classes that
  * `Clauses.classes` keys off the partitions and `Clauses.representatives`
  * off clauses over positions, and the per-shape estimates: equal shapes must
  * mean equal exact values, all three keys must give the same classes, and
  * every estimator gives a class's members the value its representative gets
  * alone.
  */
class ShapeSpec extends AnyFunSuite with SparkSpec {

  /** Non-unique positions of `inst` under `fds`, grouped by shape, each class in ascending `(row, col)` order. */
  private def classes(inst: Instance, fds: Seq[FD]): (Map[Pos, Vector[Set[Pos]]], Seq[Vector[Pos]]) = {
    val all = Clauses.forAllPositions(inst, FDs.closure(fds))
    val sorted = all.keys.toVector.sortBy(p => (p.row, p.col))
    val shape = TestGen.shapes(inst.arity)
    val byKey = sorted.groupBy(p => shape(p, all(p)).toRight(p))
    (all, byKey.values.map(_.sortBy(p => (p.row, p.col))).toSeq)
  }

  /** Each position's representative under `TestGen.shapes` on clauses over
    * `arity` columns: the least `(row, col)` position of its class.
    */
  private def shapeReps(clausesByPos: Map[Pos, Seq[Set[Pos]]], arity: Int): Map[Pos, Pos] = {
    val shape = TestGen.shapes(arity)
    val first = scala.collection.mutable.HashMap.empty[ArraySeq[Long], Pos]
    clausesByPos.keys.toVector.sortBy(p => (p.row, p.col)).map(p => p -> shape(p, clausesByPos(p)).fold(p)(first.getOrElseUpdate(_, p))).toMap
  }

  /** `Clauses.classes` against the `TestGen.shapes` oracle: the same
    * representative for every position, a class id exactly on the non-unique
    * cells, the representatives in ascending `(row, col)` order at their own
    * class ids, and each representative lowered element for element as
    * `MonteCarlo.mask` lowers its `forAllPositions` clauses. Returns the
    * classes' sizes.
    */
  private def assertClasses(inst: Instance, closed: Seq[FD], at: String): Seq[Int] = {
    val all = Clauses.forAllPositions(inst, closed)
    val (classOf, reps) = Clauses.classes(inst, closed, Partition.of(inst))
    val cell = (p: Pos) => p.row * inst.arity + p.col
    val nonUnique = Uniqueness.nonUniquePositions(inst, closed)
    assert(inst.positions.forall(p => (classOf(cell(p)) >= 0) == nonUnique(p)), at)
    assert(reps.map(_.pos) == reps.map(_.pos).sortBy(p => (p.row, p.col)), at)
    assert(reps.indices.forall(i => classOf(cell(reps(i).pos)) == i), at)
    assert(nonUnique.map(p => p -> reps(classOf(cell(p))).pos).toMap == shapeReps(all, inst.arity), at)
    for (r <- reps) {
      val want = MonteCarlo.mask(all(r.pos))
      assert(r.clauses.nVars == want.nVars, s"$at, ${r.pos}")
      assert(r.clauses.vars.map(_.toSeq).toSeq == want.vars.map(_.toSeq).toSeq, s"$at, ${r.pos}")
    }
    classOf.filter(_ >= 0).groupBy(identity).values.map(_.length).toSeq
  }

  /** The closure `PlaqueTest.pipeline` builds: of the FDs whose LHS is not a key. */
  private def nonKeyClosure(inst: Instance, fds: Seq[FD]): Vector[FD] = {
    val partition = Partition.of(inst)
    FDs.closure(fds.filterNot(f => partition(f.lhs).key))
  }

  test("Clauses.classes gives the classes of TestGen.shapes and lowers representatives as mask does (1,400 instances)") {
    var shared = 0
    for ((name, inst, fds) <- TestGen.pipelineCases)
      shared += assertClasses(inst, nonKeyClosure(inst, fds), name).count(_ > 1)
    assert(shared > 500, s"only $shared classes with two or more members")
  }

  test("Clauses.representatives gives the representatives of TestGen.shapes on forAllPositions (1,400 instances)") {
    var shared = 0
    for ((name, inst, fds) <- TestGen.pipelineCases) {
      val closed = nonKeyClosure(inst, fds)
      val all = Clauses.forAllPositions(inst, closed)
      val repOf = Clauses.representatives(all)
      assert(repOf == shapeReps(all, inst.arity), name)
      shared += repOf.values.groupBy(identity).count(_._2.size > 1)
    }
    assert(shared > 500, s"only $shared classes with two or more members")
  }

  test("Clauses.representatives equals TestGen.shapes on clauses over two rows or none, repeated and empty clauses, no clauses and columns 64 and up") {
    // Clause of row j: columns `own` in row j, columns `other` in row w.
    def c(j: Int, own: Seq[Int], w: Int, other: Seq[Int]): Set[Pos] = (own.map(Pos(j, _)) ++ other.map(Pos(w, _))).toSet
    val clauses: Map[Pos, Seq[Set[Pos]]] = Map(
      // A clause over two other rows, or over none: a class of its own.
      Pos(0, 0) -> Vector(Set(Pos(1, 0), Pos(2, 0))),
      Pos(3, 0) -> Vector(Set(Pos(4, 0), Pos(5, 0))),
      Pos(6, 0) -> Vector(Set(Pos(6, 1))),
      Pos(7, 0) -> Vector(Set(Pos(7, 1))),
      // An empty clause is over no other row; no clause at all is one class.
      Pos(8, 0) -> Vector(Set.empty[Pos]),
      Pos(9, 0) -> Vector(Set.empty[Pos]),
      Pos(10, 0) -> Vector.empty,
      Pos(11, 2) -> Vector.empty,
      // A repeated clause counts twice; the witness row may lie above or below.
      Pos(12, 0) -> Vector(c(12, Seq(1), 13, Seq(0, 1)), c(12, Seq(1), 13, Seq(0, 1))),
      Pos(14, 0) -> Vector(c(14, Seq(1), 15, Seq(0, 1))),
      Pos(17, 0) -> Vector(c(17, Seq(1), 16, Seq(0, 1))),
      Pos(18, 0) -> Vector(c(18, Seq(1), 19, Seq(0, 1)), c(18, Seq(1), 19, Seq(0, 1))),
      // Two witness rows with one signature: a multiset over rows, not a set.
      Pos(20, 0) -> Vector(c(20, Seq(1), 21, Seq(0, 1)), c(20, Seq(1), 22, Seq(0, 1))),
      // The same two clauses on one witness row or on two.
      Pos(23, 0) -> Vector(c(23, Seq(1), 24, Seq(0, 1)), c(23, Seq(2), 24, Seq(0, 2))),
      Pos(25, 0) -> Vector(c(25, Seq(1), 26, Seq(0, 1)), c(25, Seq(2), 27, Seq(0, 2))),
      // Columns 64 and up.
      Pos(28, 0) -> Vector(c(28, Seq(64), 29, Seq(0, 64))),
      Pos(30, 0) -> Vector(c(30, Seq(65), 31, Seq(0, 65))),
      Pos(32, 0) -> Vector(c(32, Seq(64), 33, Seq(0, 64))),
    )
    val repOf = Clauses.representatives(clauses)
    assert(repOf == shapeReps(clauses, 66))
    val merged = Map(Pos(11, 2) -> Pos(10, 0), Pos(18, 0) -> Pos(12, 0), Pos(17, 0) -> Pos(14, 0), Pos(32, 0) -> Pos(28, 0))
    assert(repOf == clauses.keys.map(p => p -> merged.getOrElse(p, p)).toMap)
  }

  test("Clauses.classes compares signatures of more than 64 FDs on one RHS word for word (20 instances)") {
    for (seed <- 0 until 20) {
      // 13 two-valued columns and a constant one: all 78 pairs of the 13
      // determine it, no single column does, and duplicated rows share classes.
      val rng = new scala.util.Random(seed)
      val rows = Vector.fill(6)(Vector.fill(13)(rng.nextInt(2)) :+ 0).flatMap(r => Vector(r, r))
      val inst = Instance(Vector.tabulate(14)(k => s"A$k"), rows)
      val closed = nonKeyClosure(inst, (0 until 13).combinations(2).map(c => FD(c.toSet, 13)).toVector)
      assert(closed.size == 78, s"seed $seed")
      val sizes = assertClasses(inst, closed, s"seed $seed")
      assert(sizes.sum == 12 && sizes.forall(_ % 2 == 0), s"seed $seed: $sizes")
    }
  }

  test("runExact evaluates echocardiogram's 13 class representatives over 26 clause cells from at most 3 own-row LHS cells") {
    val prep = Experiments.prepare(spark, "echocardiogram")
    val (_, reps) = Clauses.classes(prep.inst, nonKeyClosure(prep.inst, prep.fds), Partition.of(prep.inst))
    val over = reps.filter(_.clauses.nVars > 26)
    assert(over.size == 13 && over.head.pos == Pos(0, 0) && over.head.clauses.nVars == 131)
    // The union of the LHSs in any witness row's signature: p's own-row cells.
    def ownCells(r: Clauses.Rep): Int =
      r.sigs.flatMap(sig => r.lhs.indices.filter(f => (sig >>> f & 1L) != 0).flatMap(r.lhs(_))).distinct.size
    assert(over.map(ownCells).max == 3)
    val res = PlaqueTest.runExact(prep.inst, prep.fds)
    for (r <- over) assert(res.entropy(r.pos) > 0 && res.entropy(r.pos) < 1, s"at ${r.pos}")
  }

  // Seeds 297, 410, 647 and 779 hold classes that a key without the rows
  // (one multiset of mask pairs) would merge although their values differ.
  test("equal shapes give bit-equal referenceViaClauses values on 1,200 random instances") {
    val instances = (0 until 400).map(TestGen.instanceWithWideFds(_)) ++
      (0 until 800).map(TestGen.instanceWithFds(_, 6, 5, 3))
    var shared = 0
    for (((inst, fds), i) <- instances.zipWithIndex) {
      val (all, cls) = classes(inst, fds)
      for (members <- cls if members.size > 1) {
        val small = members.filter(p => MonteCarlo.mask(all(p)).nVars <= 18)
        val values = small.map(p => TestGen.referenceViaClauses(all(p)))
        assert(values.distinct.size <= 1, s"instance $i, class $members: $values")
        if (small.size > 1) shared += 1
      }
    }
    assert(shared > 300, s"only $shared classes with two checked members")
  }

  test("run gives every class member its representative's value, and the representative its unshared estimate") {
    val cases = Fig3Exp.DatasetNames.map { d =>
      val prep = Experiments.prepare(spark, d)
      (d, prep.inst, prep.fds)
    } ++ (600 until 610).map { s =>
      val (inst, fds) = TestGen.instanceWithWideFds(s)
      (s"seed $s", inst, fds)
    }
    for ((name, inst, fds) <- cases) {
      val res = PlaqueTest.run(spark, inst, fds, 30001, 3)
      val (all, cls) = classes(inst, fds)
      assert(res.classes == cls.size, name)
      for (members <- cls) {
        val rep = members.head
        val alone = MonteCarlo.sample(Seq(rep -> MonteCarlo.mask(all(rep))), 30001, 3, 1).head
        assert(res.entropy(rep) == alone, s"$name: representative $rep")
        for (p <- members.tail) assert(res.entropy(p) == res.entropy(rep), s"$name: $p vs representative $rep")
      }
    }
  }

  test("a clause touching two rows besides its own makes its position a class of its own") {
    // Positions 0 and 3 have isomorphic clause sets that each span two other
    // rows; positions 6 and 8 have isomorphic witness-style clauses.
    val clauses: Map[Pos, Seq[Set[Pos]]] = Map(
      Pos(0, 0) -> Vector(Set(Pos(1, 0), Pos(2, 0))),
      Pos(3, 0) -> Vector(Set(Pos(4, 0), Pos(5, 0))),
      Pos(6, 0) -> Vector(Set(Pos(6, 1), Pos(7, 0), Pos(7, 1))),
      Pos(8, 0) -> Vector(Set(Pos(8, 1), Pos(9, 0), Pos(9, 1))),
    )
    val est = MonteCarlo.estimateSpark(spark, clauses, 20000, 5)
    val alone = clauses.map { case (p, cls) => p -> MonteCarlo.sample(Seq(p -> MonteCarlo.mask(cls)), 20000, 5, 1).head }
    for (p <- Seq(Pos(0, 0), Pos(3, 0), Pos(6, 0))) assert(est(p) == alone(p), s"at $p")
    assert(est(Pos(0, 0)) != est(Pos(3, 0)), "the two-row positions were merged")
    assert(est(Pos(8, 0)) == est(Pos(6, 0)))
  }

  test("a 70-column instance whose shapes differ only in columns 64 and up gets no false merge") {
    // Rows 0, 1 agree on column 64 (FD 64 -> 0), rows 2, 3 on columns 65 and
    // 66 (FD {65, 66} -> 0); every other column is unique per row.
    val rows = Vector.tabulate(4) { j =>
      Vector.tabulate(70) {
        case 0 => j / 2
        case 64 => if (j < 2) 100 else j
        case 65 | 66 => if (j < 2) j else 100
        case _ => j
      }
    }
    val inst = Instance(Vector.tabulate(70)(k => s"A$k"), rows)
    // Already closed; `FDs.closure` itself takes column indices below 64 only.
    val fds = Vector(FD(Set(64), 0), FD(Set(65, 66), 0))
    val all = Clauses.forAllPositions(inst, fds)
    val shape = TestGen.shapes(70)
    assert(shape(Pos(0, 0), all(Pos(0, 0))) != shape(Pos(2, 0), all(Pos(2, 0))))
    val repOf = Clauses.representatives(all)
    assert(repOf == shapeReps(all, 70))
    assert(repOf.values.toSet == Set(Pos(0, 0), Pos(2, 0)))
    val exact = repOf.map { case (p, rep) => p -> TestGen.referenceViaClauses(all(rep)) }
    assert(assertClasses(inst, fds, "70 columns") == Seq(2, 2))
    assert(exact == Map(Pos(0, 0) -> 0.875, Pos(1, 0) -> 0.875, Pos(2, 0) -> 31.0 / 32, Pos(3, 0) -> 31.0 / 32))
    val est = MonteCarlo.estimateSpark(spark, all, 20000, 5)
    for ((p, e) <- exact) assert(math.abs(est(p) - e) < 0.02, s"at $p: ${est(p)} vs $e")
    // A bitmask of the LHS columns would wrap column 64 to column 0.
    for (r <- Clauses.classes(inst, fds, Partition.of(inst))._2) {
      val e = intercept[IllegalArgumentException](ExactEntropy.ofClass(r))
      assert(e.getMessage == s"requirement failed: position ${r.pos} has an LHS column of 64 or more, which exact evaluation refuses")
    }
  }

  test("the five mimics have 6 / 4 / 17 / 19 / 3 clause-shape classes among 119 / 300 / 932 / 770 / 150 non-unique cells") {
    val counts = Fig3Exp.DatasetNames.map { d =>
      val prep = Experiments.prepare(spark, d)
      val res = PlaqueTest.pipeline(prep.inst, prep.fds, 0L)(reps => new Array[Double](reps.size))
      assert(assertClasses(prep.inst, nonKeyClosure(prep.inst, prep.fds), d).size == res.classes, d)
      (res.nonUnique.size, res.classes)
    }
    assert(counts == Seq((119, 6), (300, 4), (932, 17), (770, 19), (150, 3)))
  }
}
