package repro.core

import scala.collection.immutable.ArraySeq

import repro.core.MonteCarlo.MaskedClauses

/** Witness clauses: the combinatorial core behind Props. 2.9, 3.2 and 3.3.
  *
  * Fix a position `p = (j, B)` and a fresh value `a` for column `B`. Since
  * the original instance fulfils `F*` and turning cells into pairwise-distinct
  * variables only removes equalities, the instance `(I_{Q←X})_{p←a}` can
  * violate an FD `L→B' ∈ F*` only via the fresh constant `a`:
  *
  *  - if `B' ≠ B` and `B ∉ L`, the FD is untouched;
  *  - if `B ∈ L`, the fresh `a` makes `p`'s tuple's LHS collide with no one;
  *  - if `B' = B`, a violation arises exactly when some *witness* row
  *    `j' ≠ j` with `t_{j'}[L] = t_j[L]` (original constants) keeps all of
  *    `{(j,c) | c ∈ L} ∪ {(j',c) | c ∈ L} ∪ {(j',B)}` outside `Q`.
  *
  * Hence `(I_{Q←X})_{p←a} ⊨ F*` iff **every** witness clause contains at
  * least one position of `Q` — a monotone-CNF "hit every clause" condition.
  * The plaque pipeline reads [[classes]], one [[Rep]] per class, whose
  * signatures the exact value factorises over and whose lowered clauses the
  * sampler draws; [[forAllPositions]] gives every non-unique position's
  * clauses over positions, and [[representatives]] keys their classes.
  * The equivalence with the literal Definition 2.4 check (a `TestGen`
  * oracle) is exercised property-style in the test suite.
  */
object Clauses {

  /** A class representative `pos = (j, B)` as the estimators read it: the
    * LHS columns of the closed FDs with RHS `B` in FD order, the class key
    * ([[classes]]: its witness rows' signatures over those FDs) and its
    * witness clauses lowered as `MonteCarlo.mask` lowers [[forAllPositions]]'s.
    */
  private[core] final case class Rep(pos: Pos, lhs: Array[Array[Int]], sigs: ArraySeq[Long], clauses: MaskedClauses)

  /** The clause-shape classes of the non-unique positions, read off the
    * partitions: the class id of every cell `row · arity + col` (−1 for a
    * unique cell), and the representatives ([[Rep]]), class `i`'s at index
    * `i`, in ascending `(row, col)` order.
    *
    * A witness clause of `p = (j, B)` from `L → B` has the cells `L` in row
    * `j` and `L ∪ {B}` in its witness row, fixed by the FD. So the clauses
    * that touch witness row `w` are given by `w`'s signature, the set of
    * closed FDs with RHS `B` whose group of `j` holds `w` (its agree set,
    * Dep-Miner: Lopes, Petit, Lakhal, EDBT 2000), and `p`'s class key is
    * `(B, multiset of its witness rows' signatures)`. Signatures are FD-index
    * bitsets of `⌈#FDs with RHS B / 64⌉` words, sorted into one array, and
    * compared word for word. These are the classes of [[representatives]] on
    * [[forAllPositions]], whose keys give the column pairs of the same
    * clauses row by row. Positions are visited row by row, columns
    * ascending, so the representative is, as there, the class's least
    * `(row, col)` position. `closedFds` is as for [[forAllPositions]].
    */
  private[core] def classes(inst: Instance, closedFds: Seq[FD], partition: Set[Int] => Partition)
      : (Array[Int], Vector[Rep]) = {
    val n = inst.nRows
    val w = new Witnesses(closedFds, partition)
    val classOf = Array.fill(inst.nCells)(-1)
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    val words = w.groups.map(g => (g.length + 63) / 64)
    val sig = new Array[Long](n * words.foldLeft(0)(math.max))
    val first = Array.fill(w.rhs.length)(scala.collection.mutable.HashMap.empty[ArraySeq[Long], Int])
    // stamp(r) == id: row r is one of the current position's witness rows, rows(0 until t).
    val stamp = Array.fill(n)(-1)
    val rows = new Array[Int](n)
    var id = -1
    for (j <- 0 until n; b <- w.rhs.indices if w.shared(b, j)) {
      val groups = w.groups(b)
      val ws = words(b)
      id += 1
      var t = 0
      for (fi <- groups.indices) {
        val g = groups(fi)
        var k = g.from(j)
        while (k < g.until(j)) {
          val r = g.members(k)
          if (r != j) {
            if (stamp(r) != id) {
              stamp(r) = id; rows(t) = r; t += 1
              java.util.Arrays.fill(sig, r * ws, r * ws + ws, 0L)
            }
            sig(r * ws + fi / 64) |= 1L << fi
          }
          k += 1
        }
      }
      val key = ArraySeq.unsafeWrapArray(sorted(sig, ws, rows, t))
      classOf(j * inst.arity + w.rhs(b)) = first(b).getOrElseUpdate(key, {
        reps += Rep(Pos(j, w.rhs(b)), w.lhs(b), key, MonteCarlo.number(w.clauses(b, j)))
        reps.size - 1
      })
    }
    (classOf, reps.toVector)
  }

  /** The signatures of `rows(0 until t)`, `words` words each at row `r`'s
    * offset `r · words` in `sig`, sorted into one array.
    */
  private def sorted(sig: Array[Long], words: Int, rows: Array[Int], t: Int): Array[Long] = {
    val key = new Array[Long](t * words)
    if (words == 1) {
      for (i <- 0 until t) key(i) = sig(rows(i))
      java.util.Arrays.sort(key)
    } else {
      val order = Array.tabulate(t)(i => Integer.valueOf(rows(i)))
      java.util.Arrays.sort(order, (x: Integer, y: Integer) =>
        java.util.Arrays.compare(sig, x * words, x * words + words, sig, y * words, y * words + words))
      for (i <- 0 until t) System.arraycopy(sig, order(i) * words, key, i * words, words)
    }
    key
  }

  /** The non-trivial closed FDs grouped by RHS, with their LHS partitions,
    * and one position's witness clauses over cell keys.
    */
  private final class Witnesses(closedFds: Seq[FD], partition: Set[Int] => Partition) {
    private val byRhs = closedFds.filterNot(_.trivial).groupBy(_.rhs).toArray.sortBy(_._1)
    /** RHS column of FD group `b`, ascending in `b`. */
    val rhs: Array[Int] = byRhs.map(_._1)
    /** The LHS partitions of group `b`'s FDs, in FD order. */
    val groups: Array[Array[Partition]] = byRhs.map(_._2.map(f => partition(f.lhs)).toArray)
    /** The LHS columns of group `b`'s FDs, in FD order. */
    val lhs: Array[Array[Array[Int]]] = byRhs.map(_._2.map(_.lhs.toArray).toArray)

    /** Whether `(j, rhs(b))` has a witness row under one of group `b`'s FDs. */
    def shared(b: Int, j: Int): Boolean = groups(b).exists(_.shared(j))

    /** The witness clauses of `(j, rhs(b))` as `MonteCarlo.key`s, in FD
      * order, then by witness row ascending.
      */
    def clauses(b: Int, j: Int): Array[Array[Long]] = {
      val out = Array.newBuilder[Array[Long]]
      for ((g, l) <- groups(b).zip(lhs(b))) {
        var k = g.from(j)
        while (k < g.until(j)) {
          val w = g.members(k)
          if (w != j) {
            val clause = new Array[Long](2 * l.length + 1)
            for (i <- l.indices) { clause(i) = MonteCarlo.key(j, l(i)); clause(l.length + i) = MonteCarlo.key(w, l(i)) }
            clause(2 * l.length) = MonteCarlo.key(w, rhs(b))
            out += clause
          }
          k += 1
        }
      }
      out.result()
    }
  }

  /** The witness clauses of every non-unique position (the key set,
    * Prop. 3.2; no entry is empty) over positions, from one row-grouping
    * pass per FD. Clauses come in FD order, then by witness row ascending:
    * `MonteCarlo.mask` numbers their cells first-seen in this order, as
    * [[classes]] numbers its representatives'.
    *
    * `closedFds` must be `FDs.closure` output, of `F` or (as
    * `PlaqueTest.pipeline` passes it) of the FDs of `F` whose LHS is not a
    * key of `inst`: both give the same clauses, as a key-LHS FD gives none.
    * Then no clause of a position contains another: a clause of
    * `p = (j, B)` has one cell in column `B`, its witness row's, so nested
    * clauses share the witness row and have nested LHSs, which the closure's
    * per-RHS antichain rules out. Other FD sets may yield a superset clause,
    * which never changes `X(Q)`.
    */
  def forAllPositions(inst: Instance, closedFds: Seq[FD]): Map[Pos, Vector[Set[Pos]]] = {
    val w = new Witnesses(closedFds, Partition.of(inst))
    val out = Map.newBuilder[Pos, Vector[Set[Pos]]]
    // A cell key is `row << 32 | col` (`MonteCarlo.key`).
    for (b <- w.rhs.indices; j <- 0 until inst.nRows if w.shared(b, j))
      out += Pos(j, w.rhs(b)) -> w.clauses(b, j).iterator.map(_.iterator.map(k => Pos((k >>> 32).toInt, k.toInt)).toSet).toVector
    out.result()
  }

  /** Each position's class representative among clause sets over
    * positions: the least `(row, col)` position with the same content key.
    * The key of `p` is, over the rows other than `p.row`, the multiset of the
    * per-row multisets of `(columns in p.row, columns in that row)` of the
    * clauses that touch the row (the agree-set signatures with multiplicities
    * of Dep-Miner, Lopes, Petit, Lakhal, EDBT 2000). Equal keys give clause
    * sets that a relabeling of rows fixing the columns maps onto each other,
    * so equal `INF` values (§3.1) and equally distributed MC estimates
    * (Thm. 3.6). A position with a clause that touches no other row, or more
    * than one, is a class of its own: witness clauses never do.
    */
  private[core] def representatives(clausesByPos: Map[Pos, Seq[Set[Pos]]]): Map[Pos, Pos] = {
    def multiset[A](xs: Iterable[A]): Map[A, Int] = xs.groupMapReduce(identity)(_ => 1)(_ + _)
    def key(p: Pos) = {
      val split = clausesByPos(p).map(_.partition(_.row == p.row))
      Option.when(split.forall(_._2.map(_.row).size == 1))(multiset(split.groupBy(_._2.head.row).values.map(cs =>
        multiset(cs.map { case (own, other) => (own.map(_.col), other.map(_.col)) }))))
    }
    val sorted = clausesByPos.keys.toSeq.sortBy(p => (p.row, p.col))
    sorted.groupBy(p => key(p).toRight(p)).values.flatMap(ps => ps.map(_ -> ps.head)).toMap
  }
}
