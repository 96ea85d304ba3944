package repro.core

/** Optimization 2 (Prop. 3.3): restrict the computation to the sub-instance
  * `I(J, K)` where `J ⊇ J₀` (rows containing at least one non-unique
  * position) and `K ⊇ K₀` (attributes appearing in some FD). Entropies of
  * positions inside the subtable are unchanged; everything outside has
  * entropy 1 by Prop. 3.2.
  */
object Reduction {

  /** A reduced instance with the bookkeeping to map its positions back to
    * full coordinates and FDs into sub coordinates.
    *
    * @param sub    the sub-instance `I(J, K)`
    * @param rowMap sub row index -> full row index (ascending)
    * @param colMap sub col index -> full col index (ascending)
    * @param nonUnique the non-unique positions of the full instance (Prop. 3.2),
    *               whose rows make up `J₀`
    */
  final case class Reduced(sub: Instance, rowMap: Vector[Int], colMap: Vector[Int], nonUnique: Set[Pos]) {
    private lazy val colInv: Map[Int, Int] = colMap.zipWithIndex.toMap

    /** Map a subtable position back to full coordinates. */
    def toFull(p: Pos): Pos = Pos(rowMap(p.row), colMap(p.col))

    /** Remap FDs (full column indices) to subtable column indices. All FD
      * attributes are in `K₀ ⊆ K` by construction, so the remap is total.
      */
    def mapFds(fds: Seq[FD]): Vector[FD] =
      fds.map(f => FD(f.lhs.map(colInv), colInv(f.rhs))).toVector
  }

  /** Compute `I(J₀, K₀)` for the given (closed) FD set. */
  def reduce(inst: Instance, fds: Seq[FD]): Reduced = {
    val nonUnique = Uniqueness.nonUniquePositions(inst, fds)
    val j0 = nonUnique.map(_.row).toVector.sorted
    val k0 = fds.filterNot(_.trivial).flatMap(f => f.lhs + f.rhs).distinct.sorted.toVector
    Reduced(inst.subInstance(j0, k0), j0, k0, nonUnique)
  }
}
