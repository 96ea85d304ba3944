package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.{Experiments, Fig3Exp}

/** Clause shapes (`Clauses.shapes`) and the per-shape estimates of
  * `PlaqueTest.byShape`: equal shapes must mean equal exact values, and every
  * estimator gives a class's members the value its representative gets alone.
  */
class ShapeSpec extends AnyFunSuite with SparkSpec {

  /** Non-unique positions of `inst` under `fds`, grouped by shape, each class in ascending `(row, col)` order. */
  private def classes(inst: Instance, fds: Seq[FD]): (Map[Pos, Clauses.Lowered], Seq[Vector[Pos]]) = {
    val index = Clauses.index(inst, FDs.closure(fds))
    val sorted = index.keys.toVector.sortBy(p => (p.row, p.col))
    val shape = Clauses.shapes(inst.arity)
    val byKey = sorted.groupBy(p => shape(p, index(p)).toRight(p))
    (index, byKey.values.map(_.sortBy(p => (p.row, p.col))).toSeq)
  }

  // Seeds 297, 410, 647 and 779 hold classes that a key without the rows
  // (one multiset of mask pairs) would merge although their values differ.
  test("equal shapes give bit-equal referenceViaClauses values on 1,200 random instances") {
    val instances = (0 until 400).map(TestGen.instanceWithWideFds(_)) ++
      (0 until 800).map(TestGen.instanceWithFds(_, 6, 5, 3))
    var shared = 0
    for (((inst, fds), i) <- instances.zipWithIndex) {
      val (index, cls) = classes(inst, fds)
      for (members <- cls if members.size > 1) {
        val small = members.filter(p => index(p).mc.nVars <= 18)
        val values = small.map(p => TestGen.referenceViaClauses(index(p).clauses(inst.arity)))
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
      val (index, cls) = classes(inst, fds)
      assert(res.classes == cls.size, name)
      for (members <- cls) {
        val rep = members.head
        val alone = MonteCarlo.sample(Map(rep -> index(rep).mc), 30001, 3, 1)(rep)
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
    val alone = clauses.map { case (p, cls) => p -> MonteCarlo.sample(Map(p -> MonteCarlo.mask(cls)), 20000, 5, 1)(p) }
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
    val index = Clauses.index(inst, fds)
    val shape = Clauses.shapes(70)
    assert(shape(Pos(0, 0), index(Pos(0, 0))) != shape(Pos(2, 0), index(Pos(2, 0))))
    val (exact, classes) = PlaqueTest.byShape(index, 70)(_.map { case (p, mc) => p -> ExactEntropy.viaClauses(p, mc) })
    assert(classes == 2)
    assert(exact == Map(Pos(0, 0) -> 0.875, Pos(1, 0) -> 0.875, Pos(2, 0) -> 31.0 / 32, Pos(3, 0) -> 31.0 / 32))
    val est = MonteCarlo.estimateSpark(spark, Clauses.forAllPositions(inst, fds), 20000, 5)
    for ((p, e) <- exact) assert(math.abs(est(p) - e) < 0.02, s"at $p: ${est(p)} vs $e")
  }

  test("the five mimics have 6 / 4 / 22 / 166 / 3 clause-shape classes among 119 / 300 / 932 / 770 / 150 non-unique cells") {
    val counts = Fig3Exp.DatasetNames.map { d =>
      val prep = Experiments.prepare(spark, d)
      val res = PlaqueTest.pipeline(prep.inst, prep.fds, 0L)(_.map { case (p, _) => p -> 0.0 })
      (res.nonUnique.size, res.classes)
    }
    assert(counts == Seq((119, 6), (300, 4), (932, 22), (770, 166), (150, 3)))
  }
}
