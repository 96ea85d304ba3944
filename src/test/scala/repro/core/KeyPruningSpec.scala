package repro.core

import scala.util.Try

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.{Experiments, Fig3Exp}

/** `PlaqueTest.pipeline` closes only the FDs whose LHS is not a key of the
  * instance. These tests check that this changes no clause and no matrix
  * value against closing all of `F`.
  */
class KeyPruningSpec extends AnyFunSuite with SparkSpec {

  private def key(inst: Instance): FD => Boolean = {
    val partition = Partition.of(inst)
    f => partition(f.lhs).key
  }

  /** The plaque pipeline with the closure of all of `F`, as before key pruning. */
  private def fullClosure(inst: Instance, fds: Seq[FD])(
      estimate: Seq[Clauses.Rep] => Array[Double]): Vector[Vector[Double]] = {
    FDs.requireHolds(inst, fds)
    val (classOf, reps) = Clauses.classes(inst, FDs.closure(fds), Partition.of(inst))
    PlaqueTest.Result(inst, classOf, estimate(reps), Vector.empty, 0L).entropies
  }

  test("Partition.key: one row per group, on the ∅ LHS, 0 rows, 1 row and duplicate rows") {
    val attrs = Vector("A", "B", "C")
    def keys(rows: Vector[Vector[Int]]): Seq[Boolean] = {
      val partition = Partition.of(Instance(attrs, rows))
      Seq(Set.empty[Int], Set(0), Set(1), Set(0, 1), Set(0, 1, 2)).map(partition(_).key)
    }
    assert(keys(Vector.empty) == Seq(true, true, true, true, true))
    assert(keys(Vector(Vector(1, 2, 3))) == Seq(true, true, true, true, true))
    assert(keys(Vector.fill(3)(Vector(1, 2, 3))) == Seq(false, false, false, false, false))
    // Column A is unique, B is not, and C only tells the last two rows apart.
    assert(keys(Vector(Vector(0, 5, 1), Vector(1, 5, 2), Vector(2, 5, 2))) == Seq(false, true, false, true, true))
    assert(keys(Vector(Vector(0, 5, 1), Vector(0, 5, 2))) == Seq(false, false, false, false, true))
  }

  test("the closure of the non-key FDs has the non-key FDs of F* and gives the same clauses (1,400 instances)") {
    var keyFds = 0
    var nonKeyFds = 0
    for ((name, inst, fds) <- TestGen.pipelineCases) {
      val (keyed, rest) = fds.partition(key(inst))
      val (pruned, full) = (FDs.closure(rest), FDs.closure(fds))
      assert(pruned.filterNot(key(inst)) == full.filterNot(key(inst)), name)
      // `==` pins the clause order too, on which `MonteCarlo.mask`'s numbering depends.
      assert(Clauses.forAllPositions(inst, pruned) == Clauses.forAllPositions(inst, full), name)
      keyFds += keyed.size
      nonKeyFds += rest.size
    }
    assert(keyFds > 300 && nonKeyFds > 300, (keyFds, nonKeyFds))
  }

  test("runExact and matrixLocal equal a pipeline that closes all of F (1,400 instances)") {
    var refused = 0
    for ((name, inst, fds) <- TestGen.pipelineCases) {
      def message(t: Try[Vector[Vector[Double]]]) = t.toEither.left.map(_.getMessage)
      val exact = Try(fullClosure(inst, fds)(_.map(ExactEntropy.ofClass).toArray))
      assert(message(Try(PlaqueTest.runExact(inst, fds).entropies)) == message(exact), name)
      if (exact.isFailure) refused += 1
      val mc = fullClosure(inst, fds)(reps => MonteCarlo.sample(reps.map(r => r.pos -> r.clauses), 3000, 9, 1))
      assert(PlaqueTest.run(spark, inst, fds, 3000, 9).entropies == mc, name)
    }
    assert(refused < TestGen.pipelineCases.size / 10, refused)
  }

  test("the closure of the non-key FDs may keep a key-LHS resolvent that F* subsumes") {
    // Columns A X B D Y E: {A, X} and {B, D, Y} group rows 0 and 1 or 0 and 3; {A, D} is a key.
    val inst = Instance(Vector("A", "X", "B", "D", "Y", "E"), Vector(
      Vector(0, 0, 0, 0, 0, 0),
      Vector(0, 0, 0, 1, 0, 1),
      Vector(1, 0, 1, 0, 0, 2),
      Vector(2, 0, 0, 0, 0, 0),
    ))
    val (ax, bdy, ad) = (FD(Set(0, 1), 2), FD(Set(2, 3, 4), 5), FD(Set(0, 3), 5))
    val fds = Vector(ax, bdy, ad)
    assert(fds.map(key(inst)) == Vector(false, false, true))
    val pruned = FDs.closure(Vector(ax, bdy))
    assert(pruned == Vector(ax, bdy, FD(Set(0, 1, 3, 4), 5)))
    assert(FDs.closure(fds) == Vector(ax, ad, bdy))
    assert(PlaqueTest.runExact(inst, fds).closedFds == pruned)
    val exact = fullClosure(inst, fds)(_.map(ExactEntropy.ofClass).toArray)
    assert(PlaqueTest.runExact(inst, fds).entropies == exact)
  }

  test("the closure's 64-column limit binds only non-key FDs") {
    // Column 0 pairs rows 0/1 and 2/3; column 65 is unique per row, column 64 pairs them like column 0.
    val rows = Vector.tabulate(4)(j => Vector.tabulate(70) {
      case 0 | 64 => j / 2
      case 1 => 7
      case _ => j
    })
    val inst = Instance(Vector.tabulate(70)(k => s"A$k"), rows)
    val keyed = Vector(FD(Set(0), 1), FD(Set(65), 0))
    assertThrows[IllegalArgumentException](FDs.closure(keyed))
    val res = PlaqueTest.runExact(inst, keyed)
    assert(res.closedFds == Vector(FD(Set(0), 1)))
    assert(res.nonUnique == Set(Pos(0, 1), Pos(1, 1), Pos(2, 1), Pos(3, 1)))
    assert(PlaqueTest.run(spark, inst, keyed, 1000, 3).byPosition.keySet == inst.positions.toSet)
    val e = intercept[IllegalArgumentException](PlaqueTest.runExact(inst, keyed :+ FD(Set(64), 0)))
    assert(e.getMessage.contains("closure supports column indices 0..63 only"), e.getMessage)
  }

  test("on the five mimics both closures give the same clauses; 2 / 2 / 19 / 17 / 2 FDs are not keyed") {
    val nonKey = Fig3Exp.DatasetNames.map { d =>
      val prep = Experiments.prepare(spark, d)
      val rest = prep.fds.filterNot(key(prep.inst))
      assert(Clauses.forAllPositions(prep.inst, FDs.closure(rest)) == Clauses.forAllPositions(prep.inst, FDs.closure(prep.fds)), d)
      (rest.size, prep.fds.size)
    }
    assert(nonKey == Seq((2, 44), (2, 194), (19, 161), (17, 1717), (2, 2)))
  }
}
