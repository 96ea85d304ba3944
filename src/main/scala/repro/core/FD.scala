package repro.core

/** A functional dependency `A_1 ... A_s -> B` over column indices
  * (Definition 2.3). `lhs` may be empty (a constant column) and may contain
  * `rhs` (a trivial, reflexive FD — always fulfilled).
  */
final case class FD(lhs: Set[Int], rhs: Int) {

  /** Reflexive FDs (`B ∈ lhs`) hold in every instance and generate no
    * witness clauses, so they can be dropped everywhere.
    */
  def trivial: Boolean = lhs.contains(rhs)

  def render(attrs: Seq[String]): String =
    s"${lhs.toSeq.sorted.map(attrs).mkString(", ")} -> ${attrs(rhs)}"
}

/** Construction and implication-closure utilities for FD sets.
  *
  * The paper's semantics of `I ⊨ F` for instances with variables requires the
  * *closure* `F*` of `F` ("we assume that the transitive closure of functional
  * dependencies is provided", §2.1). We compute it as the fixpoint of
  * pseudo-transitivity — `L→B, M→C with B∈M  ⟹  (L ∪ M∖{B})→C` — with
  * LHS-subsumption pruning (an FD whose LHS is a superset of another FD's LHS
  * with the same RHS is implied by augmentation and contributes only subsumed,
  * hence redundant, witness clauses).
  */
object FDs {

  /** Parse name-level FDs against an attribute list. */
  def byName(attrs: Seq[String], fds: Seq[(Seq[String], String)]): Vector[FD] =
    fds.map { case (l, r) =>
      FD(l.map(a => indexOf(attrs, a)).toSet, indexOf(attrs, r))
    }.toVector

  private def indexOf(attrs: Seq[String], a: String): Int = {
    val i = attrs.indexOf(a)
    require(i >= 0, s"unknown attribute '$a' (have: ${attrs.mkString(", ")})")
    i
  }

  /** Drop trivial FDs, duplicates, and FDs subsumed by another FD with the
    * same RHS and a subset LHS. The result determines the same minimal
    * witness clauses as the input.
    */
  def minimize(fds: Seq[FD]): Vector[FD] = {
    val nontrivial = fds.filterNot(_.trivial).distinct
    nontrivial.filterNot { f =>
      nontrivial.exists(g => g != f && g.rhs == f.rhs && g.lhs.subsetOf(f.lhs))
    }.toVector
  }

  /** Pseudo-transitivity fixpoint of `fds`, minimized. */
  def closure(fds: Seq[FD]): Vector[FD] = {
    var known = minimize(fds).toSet
    var changed = true
    while (changed) {
      changed = false
      val derived = for {
        f <- known.iterator
        g <- known.iterator
        if g.lhs.contains(f.rhs)
        cand = FD(f.lhs ++ (g.lhs - f.rhs), g.rhs)
        if !cand.trivial
        if !known.exists(h => h.rhs == cand.rhs && h.lhs.subsetOf(cand.lhs))
      } yield cand
      val fresh = derived.toSet
      if (fresh.nonEmpty) {
        // Re-minimize: a new FD may subsume previously known ones.
        known = minimize((known ++ fresh).toSeq).toSet
        changed = true
      }
    }
    known.toVector.sortBy(f => (f.rhs, f.lhs.size, f.lhs.toSeq.sorted.mkString(",")))
  }
}
