package repro.core

import scala.collection.mutable

/** A functional dependency `A_1 ... A_s -> B` over column indices
  * (Definition 2.3). `lhs` may be empty (a constant column) and may contain
  * `rhs` (a trivial, reflexive FD — always fulfilled).
  */
final case class FD(lhs: Set[Int], rhs: Int) {

  /** Reflexive FDs (`B ∈ lhs`) hold in every instance and generate no
    * witness clauses, so they can be dropped everywhere.
    */
  def trivial: Boolean = lhs.contains(rhs)

  /** `A, C -> D` by attribute name; an empty LHS reads `∅ -> D`. */
  def render(attrs: Seq[String]): String =
    s"${if (lhs.isEmpty) "∅" else lhs.toSeq.sorted.map(attrs).mkString(", ")} -> ${attrs(rhs)}"
}

/** Construction, checking and implication-closure utilities for FD sets.
  *
  * The paper's semantics of `I ⊨ F` for instances with variables requires the
  * *closure* `F*` of `F` ("we assume that the transitive closure of functional
  * dependencies is provided", §2.1). We compute it by saturating `F` under
  * pseudo-transitivity — `L→B, M→C with B∈M  ⟹  (L ∪ M∖{B})→C` — with
  * LHS-subsumption pruning (an FD whose LHS is a superset of another FD's LHS
  * with the same RHS is implied by augmentation and contributes only subsumed,
  * hence redundant, witness clauses).
  */
object FDs {

  /** Parse name-level FDs against an attribute list. */
  def byName(attrs: Seq[String], fds: Seq[(Seq[String], String)]): Vector[FD] =
    fds.map { case (l, r) =>
      FD(l.map(Instance.attrIndex(attrs, _)).toSet, Instance.attrIndex(attrs, r))
    }.toVector

  /** Two row ids that agree on `fd`'s LHS and differ on its RHS, or `None`
    * if `fd` holds in `inst` (Definition 2.3): `(i, j)` for the least row `j`
    * whose RHS differs from that of `i`, the first row of its [[Partition]]
    * group. Trivial FDs hold, as a group agrees on the RHS too.
    */
  def violation(inst: Instance, fd: FD): Option[(Int, Int)] = violations(inst)(fd)

  /** [[violation]] for many FDs over one instance, grouping each distinct LHS once. */
  def violations(inst: Instance): FD => Option[(Int, Int)] = {
    val partition = Partition.of(inst)
    fd => partition(fd.lhs).violation(inst.column(fd.rhs))
  }

  /** Throws an `IllegalArgumentException` naming the first FD of `fds` that
    * uses a column index outside `[0, arity)` (with its indices and the
    * arity), or that does not hold in `inst` (with two rows that violate
    * it). Every entropy computation assumes `I ⊨ F` and checks it here.
    */
  def requireHolds(inst: Instance, fds: Seq[FD]): Unit = requireHolds(inst, fds, Partition.of(inst))

  private[core] def requireHolds(inst: Instance, fds: Seq[FD], partition: Set[Int] => Partition): Unit =
    for (f <- fds) {
      require((f.lhs + f.rhs).forall(a => a >= 0 && a < inst.arity),
        s"FD ${f.lhs.toSeq.sorted.mkString("{", ", ", "}")} -> ${f.rhs} names a column outside [0, ${inst.arity}) " +
          s"of an arity-${inst.arity} instance")
      for ((i, j) <- partition(f.lhs).violation(inst.column(f.rhs)))
        throw new IllegalArgumentException(
          s"FD ${f.render(inst.attrs)} does not hold: rows $i and $j agree on its LHS but differ on ${inst.attrs(f.rhs)}")
    }

  /** The closure `F*` of `fds`: every non-trivial implied FD with a minimal
    * LHS, sorted by `(rhs, |lhs|, lhs)`.
    *
    * FD implication is Horn-clause resolution (Beeri & Bernstein, TODS 1979),
    * so the closure is saturated from a worklist. LHSs are `Long` bitmasks,
    * kept in one subsumption antichain per RHS column. A candidate is dropped
    * when it is trivial or a kept LHS with its RHS is a subset of it; a kept
    * candidate evicts the LHSs it is a subset of and joins the worklist. Each
    * FD taken from the worklist is resolved once as the left premise (against
    * every live FD whose LHS contains its RHS) and once as the right premise
    * (against every live FD whose RHS is in its LHS). The output is identical,
    * element for element and in order, to that of the pairwise fixpoint this
    * replaced. Column indices must lie in `[0, 64)`; `PlaqueTest.pipeline`
    * closes only the FDs whose LHS is not a key of its instance, so there
    * the limit binds only those.
    */
  def closure(fds: Seq[FD]): Vector[FD] = {
    for (f <- fds)
      require(f.rhs >= 0 && f.rhs < 64 && f.lhs.forall(a => a >= 0 && a < 64),
        s"closure supports column indices 0..63 only, got $f")
    val width = fds.iterator.map(f => (f.lhs + f.rhs).max + 1).maxOption.getOrElse(0)
    // Copy-on-write: `add` replaces an antichain, so a loop over one is a snapshot.
    val byRhs = Array.fill(width)(Array.emptyLongArray)
    val queue = mutable.Queue.empty[(Long, Int)]
    def subsumed(l: Long, r: Int): Boolean = {
      val live = byRhs(r)
      var i = 0
      while (i < live.length && (live(i) & ~l) != 0) i += 1
      i < live.length
    }
    def add(l: Long, r: Int): Unit =
      if ((l & 1L << r) == 0 && !subsumed(l, r)) {
        byRhs(r) = byRhs(r).filter(h => (l & ~h) != 0) :+ l
        queue.enqueue((l, r))
      }
    for (f <- fds) add(f.lhs.foldLeft(0L)((m, a) => m | 1L << a), f.rhs)
    while (queue.nonEmpty) {
      val (l, r) = queue.dequeue()
      // An evicted FD's resolvents are subsumed by those of its evictor.
      if (byRhs(r).contains(l)) {
        val bit = 1L << r
        for (c <- byRhs.indices) {
          val gs = byRhs(c)
          val inLhs = (l & 1L << c) != 0
          var i = 0
          while (i < gs.length) {
            val g = gs(i)
            if ((g & bit) != 0) add(l | g & ~bit, c) // f = l→r as the left premise
            if (inLhs) add(g | l & ~(1L << c), r) // f as the right premise
            i += 1
          }
        }
      }
    }
    val closed = for (r <- byRhs.indices; l <- byRhs(r))
      yield FD((0 until 64).filter(a => (l & 1L << a) != 0).toSet, r)
    closed.map(f => ((f.rhs, f.lhs.size, f.lhs.toSeq.sorted.mkString(",")), f)).sortBy(_._1).map(_._2).toVector
  }
}
