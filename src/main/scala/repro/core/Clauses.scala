package repro.core

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
  * Every estimator reads [[index]]; [[forAllPositions]] is its `Set[Pos]`
  * view. The equivalence with the literal Definition 2.4 check (a `TestGen`
  * oracle) is exercised property-style in the test suite.
  */
object Clauses {

  /** The witness clauses of one position, lowered: `mc` numbers the clause
    * cells exactly as [[MonteCarlo.mask]] does on the `Set[Pos]` clauses, and
    * `cells(v)` is clause cell `v` as `row · arity + col`.
    */
  final case class Lowered(mc: MaskedClauses, cells: Array[Int]) {

    /** The clauses over positions, in order. */
    def clauses(arity: Int): Vector[Set[Pos]] =
      mc.vars.iterator.map(_.iterator.map(v => Pos(cells(v) / arity, cells(v) % arity)).toSet).toVector
  }

  /** The lowered witness clauses of every non-unique position (the key set,
    * Prop. 3.2; no entry is empty), from one row-grouping pass per FD.
    *
    * Clauses come in FD order, then by witness row ascending. Cells are
    * numbered first-seen over the clauses, each clause's cells taken in
    * ascending `(row, col)` order; `vars(i)` lists clause `i`'s numbers in
    * ascending order. Rows are grouped by [[Partition]]; a stamp array
    * renumbers the cells per position.
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
  def index(inst: Instance, closedFds: Seq[FD]): Map[Pos, Lowered] = index(inst, closedFds, Partition.of(inst))

  private[core] def index(inst: Instance, closedFds: Seq[FD], partition: Set[Int] => Partition): Map[Pos, Lowered] = {
    val m = inst.arity
    // owner(c) is the last position id that numbered cell c, as number(c).
    val owner = Array.fill(inst.nCells)(-1)
    val number = new Array[Int](inst.nCells)
    var pid = -1
    val out = Map.newBuilder[Pos, Lowered]
    for ((b, fds) <- closedFds.filterNot(_.trivial).groupBy(_.rhs)) {
      val lhs = fds.map(_.lhs.toArray.sorted).toArray
      val withRhs = fds.map(f => (f.lhs + b).toArray.sorted).toArray
      val groups = fds.map(f => partition(f.lhs)).toArray
      for (j <- 0 until inst.nRows if groups.exists(_.shared(j))) {
        pid += 1
        val cells = Array.newBuilder[Int]
        var nVars = 0
        // Numbers row `row`'s cells in columns `cs` into `clause` from `at` on.
        def put(clause: Array[Int], at: Int, row: Int, cs: Array[Int]): Unit = {
          var i = 0
          while (i < cs.length) {
            val c = row * m + cs(i)
            if (owner(c) != pid) { owner(c) = pid; number(c) = nVars; cells += c; nVars += 1 }
            clause(at + i) = number(c)
            i += 1
          }
        }
        val vars = Array.newBuilder[Array[Int]]
        for (fi <- groups.indices) {
          val g = groups(fi)
          var k = g.from(j)
          while (k < g.until(j)) {
            val w = g.members(k)
            if (w != j) {
              val clause = new Array[Int](lhs(fi).length + withRhs(fi).length)
              // Cells in ascending (row, col) order: the lower row's first.
              if (w < j) { put(clause, 0, w, withRhs(fi)); put(clause, withRhs(fi).length, j, lhs(fi)) }
              else { put(clause, 0, j, lhs(fi)); put(clause, lhs(fi).length, w, withRhs(fi)) }
              java.util.Arrays.sort(clause)
              vars += clause
            }
            k += 1
          }
        }
        out += Pos(j, b) -> Lowered(MaskedClauses(nVars, vars.result()), cells.result())
      }
    }
    out.result()
  }

  /** The witness clauses of every non-unique position over positions: the
    * `Set[Pos]` view of [[index]], same keys and clause order.
    */
  def forAllPositions(inst: Instance, closedFds: Seq[FD]): Map[Pos, Vector[Set[Pos]]] =
    index(inst, closedFds).map { case (p, l) => p -> l.clauses(inst.arity) }

  /** Clauses over positions lowered as [[index]] lowers witness clauses, with
    * cell `(row, col)` as `row · arity + col`; every column must be below `arity`.
    */
  private[core] def lower(clauses: Seq[Set[Pos]], arity: Int): Lowered = {
    val number = scala.collection.mutable.HashMap.empty[Int, Int]
    val cells = Array.newBuilder[Int]
    val vars = clauses.iterator.map { clause =>
      clause.iterator.map(c => c.row * arity + c.col).toArray.sorted
        .map(c => number.getOrElseUpdate(c, { cells += c; number.size })).sorted
    }.toArray
    Lowered(MaskedClauses(number.size, vars), cells.result())
  }

  /** A clause shape, or a part of one, compared element for element: no
    * hash decides equality.
    */
  private[core] final class Shape(private val words: Array[Long]) {
    override def equals(o: Any): Boolean = o match {
      case s: Shape => java.util.Arrays.equals(words, s.words)
      case _ => false
    }
    override def hashCode: Int = java.util.Arrays.hashCode(words)
  }

  /** The clause shape of a position `p` with lowered clauses over `arity`
    * columns: for each row other than `p.row`, the sorted list of `(columns
    * in p.row, columns in that row)` masks of the clauses that touch it,
    * `⌈arity / 64⌉` words per mask, and these per-row lists as a canonical
    * multiset (the agree-set signatures with multiplicities of Dep-Miner,
    * Lopes, Petit, Lakhal, EDBT 2000). Positions with equal shapes have clause
    * sets that a relabeling of rows fixing the columns maps onto each other,
    * so equal `INF` values (§3.1) and equally distributed MC estimates
    * (Thm. 3.6). `None` if a clause touches no row or two rows besides
    * `p.row`: witness clauses never do, and such a position is a class of
    * its own.
    *
    * The returned function numbers each distinct mask pair and each distinct
    * per-row list in one table, so that the sorts run on primitive ids; its
    * shapes compare only with shapes from the same function.
    */
  private[core] def shapes(arity: Int): (Pos, Lowered) => Option[Shape] = {
    val w = (arity + 63) / 64
    val ids = scala.collection.mutable.HashMap.empty[Shape, Long]
    def id(words: Array[Long]): Long = ids.getOrElseUpdate(new Shape(words), ids.size.toLong)
    // Clause `c` of `p`: its other row in the high half and the id of its
    // mask pair in the low half, or -1 if it touches no row or two rows besides p.row.
    def entry(p: Pos, l: Lowered, c: Array[Int]): Long = {
      val masks = new Array[Long](2 * w)
      var other = -1
      var k = 0
      while (k < c.length) {
        val row = l.cells(c(k)) / arity
        val col = l.cells(c(k)) % arity
        if (row == p.row) masks(col / 64) |= 1L << col
        else if (other == -1 || other == row) { other = row; masks(w + col / 64) |= 1L << col }
        else return -1L
        k += 1
      }
      if (other == -1) -1L else other.toLong << 32 | id(masks)
    }
    (p, l) => {
      val clauses = l.mc.vars
      val byRow = new Array[Long](clauses.length)
      var i = 0
      while (i < clauses.length && { byRow(i) = entry(p, l, clauses(i)); byRow(i) >= 0 }) i += 1
      if (i < clauses.length) None
      else {
        java.util.Arrays.sort(byRow)
        val rows = Array.newBuilder[Long]
        var from = 0
        while (from < byRow.length) {
          var until = from + 1
          while (until < byRow.length && byRow(until) >>> 32 == byRow(from) >>> 32) until += 1
          rows += id(byRow.slice(from, until).map(_ & 0xffffffffL))
          from = until
        }
        val key = rows.result()
        java.util.Arrays.sort(key)
        Some(new Shape(key))
      }
    }
  }
}
