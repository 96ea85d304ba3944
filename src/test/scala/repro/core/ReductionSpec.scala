package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ReductionSpec extends AnyFunSuite {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds = Vector(FD(Set(0), 2))
  private val closed = FDs.closure(fds)

  test("Example 3.4: J0 drops the unique middle tuple, K0 keeps A and C") {
    val red = Reduction.reduce(ex34, closed)
    assert(red.rowMap == Vector(0, 2))
    assert(red.colMap == Vector(0, 2))
    assert(red.sub.attrs == Vector("A", "C"))
    assert(red.sub.rows == Vector(Vector(7, 8), Vector(7, 8)))
  }

  test("Example 3.4: reduction shrinks 2^15 to 2^3 subsets per position") {
    val red = Reduction.reduce(ex34, closed)
    assert(ex34.nCells - 1 == 11) // 12 cells total
    assert(red.sub.nCells - 1 == 3)
  }

  test("position mapping round-trips") {
    val red = Reduction.reduce(ex34, closed)
    assert(red.toFull(Pos(1, 1)) == Pos(2, 2))
    // Rows 0, 2 and attributes A, C, values included.
    assert(red.sub.positions.map(red.toFull) == Vector(Pos(0, 0), Pos(0, 2), Pos(2, 0), Pos(2, 2)))
    for (q <- red.sub.positions)
      assert(red.sub.rows(q.row)(q.col) == ex34.rows(red.toFull(q).row)(red.toFull(q).col))
  }

  test("mapFds remaps column indices") {
    val red = Reduction.reduce(ex34, closed)
    assert(red.mapFds(closed) == Vector(FD(Set(0), 1)))
  }

  test("Prop. 3.3: subtable entropies equal full-instance entropies (Example 3.4)") {
    val red = Reduction.reduce(ex34, closed)
    val subFds = red.mapFds(closed)
    for (pSub <- red.sub.positions) {
      val full = ExactEntropy.compute(ex34, closed, red.toFull(pSub))
      val sub = ExactEntropy.compute(red.sub, subFds, pSub)
      assert(math.abs(full - sub) < 1e-12, s"at $pSub")
    }
  }

  // Prop. 3.3 on randomized repaired instances: the naive value on the
  // reduced subtable equals the naive value on the full instance for every
  // position inside the subtable.
  for (seed <- 200 until 225) {
    test(s"Prop. 3.3 on a random instance (seed=$seed)") {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val red = Reduction.reduce(inst, closed)
      val subFds = red.mapFds(closed)
      for (pSub <- red.sub.positions) {
        val full = ExactEntropy.compute(inst, closed, red.toFull(pSub))
        val sub = ExactEntropy.compute(red.sub, subFds, pSub)
        assert(math.abs(full - sub) < 1e-12,
          s"full=$full sub=$sub at $pSub inst=$inst fds=$fds red=$red")
      }
    }
  }

  test("reduce carries the non-unique positions whose rows make up J0") {
    for (seed <- 200L until 225L) {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val red = Reduction.reduce(inst, closed)
      assert(red.nonUnique == Uniqueness.nonUniquePositions(inst, closed), s"seed $seed")
      assert(red.rowMap == red.nonUnique.map(_.row).toVector.sorted, s"seed $seed")
    }
  }

  test("reduction of a redundancy-free instance is empty") {
    val free = Instance(Vector("A", "B"), Vector(Vector(1, 1), Vector(2, 2)))
    val red = Reduction.reduce(free, FDs.closure(Vector(FD(Set(0), 1))))
    assert(red.sub.nRows == 0)
    assert(red.colMap == Vector(0, 1))
  }
}
