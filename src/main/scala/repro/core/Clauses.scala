package repro.core

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
  * Uniqueness, the reduction and every estimator read [[forAllPositions]].
  * The equivalence with the literal Definition 2.4 check (a `TestGen`
  * oracle) is exercised property-style in the test suite.
  */
object Clauses {

  /** The witness clauses of every non-unique position (the key set, Prop. 3.2;
    * no value is empty), from one row-grouping pass per FD.
    *
    * `closedFds` must be `FDs.closure` output. Then no clause of a position
    * contains another: a clause of `p = (j, B)` has one cell in column `B`,
    * its witness row's, so nested clauses share the witness row and have
    * nested LHSs, which the closure's per-RHS antichain rules out. As the
    * closure is sorted by `(rhs, |lhs|, …)`, clauses come out by size
    * (`2·|lhs| + 1` cells), the order `MonteCarlo.mask` numbers cells in.
    * Other FD sets may yield a superset clause, which never changes `X(Q)`.
    */
  def forAllPositions(inst: Instance, closedFds: Seq[FD]): Map[Pos, Vector[Set[Pos]]] = {
    val acc = scala.collection.mutable.Map.empty[Pos, Vector[Set[Pos]]].withDefaultValue(Vector.empty)
    for (fd <- closedFds if !fd.trivial) {
      val lhs = fd.lhs.toVector.sorted
      val groups = inst.rows.indices.groupBy(j => lhs.map(c => inst.rows(j)(c)))
      for ((_, rowsIdx) <- groups if rowsIdx.size > 1; j <- rowsIdx) {
        val p = Pos(j, fd.rhs)
        val cls = for (j2 <- rowsIdx.toVector if j2 != j)
          yield lhs.map(c => Pos(j, c)).toSet ++ lhs.map(c => Pos(j2, c)) + Pos(j2, fd.rhs)
        acc(p) = acc(p) ++ cls
      }
    }
    acc.toMap
  }
}
