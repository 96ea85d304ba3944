package repro.core

/** Exact entropy computation with the paper's optimizations, plus a
  * clause-based fast-exact variant used as a test oracle.
  */
object ExactEntropy {

  /** Result of an exact run over a whole instance.
    *
    * @param entropies per-position values computed so far (complete iff
    *                  `!aborted`); unique positions are reported as 1.0
    * @param aborted   true iff the time budget elapsed (paper: "–")
    * @param elapsedMs wall-clock time spent
    */
  final case class Result(entropies: Map[Pos, Double], aborted: Boolean, elapsedMs: Long)

  /** The paper's "Unoptimized" configuration: Prop. 2.9 on the full instance
    * for every position.
    */
  def naive(inst: Instance, fds: Seq[FD], budgetMs: Long = Long.MaxValue): Result = {
    val t0 = System.nanoTime()
    val closed = FDs.closure(fds)
    val res = NaiveEntropy.matrix(inst, closed, budgetMs)
    val ms = (System.nanoTime() - t0) / 1000000L
    res match {
      case Some(mat) => Result(mat, aborted = false, ms)
      case None      => Result(Map.empty, aborted = true, ms)
    }
  }

  /** The paper's "Optimized" configuration: Prop. 3.2 (skip unique cells) +
    * Prop. 3.3 (reduce to `I(J₀,K₀)`), then Prop. 2.9 enumeration on the
    * subtable for each remaining position.
    */
  def optimized(inst: Instance, fds: Seq[FD], budgetMs: Long = Long.MaxValue): Result = {
    val t0 = System.nanoTime()
    val deadline = if (budgetMs == Long.MaxValue) Long.MaxValue else t0 + budgetMs * 1000000L
    def elapsed: Long = (System.nanoTime() - t0) / 1000000L

    val closed = FDs.closure(fds)
    val nonUnique = Uniqueness.nonUniquePositions(inst, closed)
    val ones = inst.positions.filterNot(nonUnique).map(_ -> 1.0)

    if (nonUnique.isEmpty) return Result(ones.toMap, aborted = false, elapsed)

    val red = Reduction.reduce(inst, closed)
    val subFds = red.mapFds(closed)
    // The subtable can still be too large to enumerate (2^cells subsets).
    if (red.sub.nCells > 62) return Result(ones.toMap, aborted = true, elapsed)

    val out = Map.newBuilder[Pos, Double]
    out ++= ones
    for (pFull <- nonUnique.toVector.sortBy(p => (p.row, p.col))) {
      val pSub = red.toSub(pFull).getOrElse(
        throw new IllegalStateException(s"non-unique position $pFull outside I(J0,K0)"))
      val e = NaiveEntropy.compute(red.sub, subFds, pSub, maxCells = 62, deadlineNanos = deadline)
      if (e.isNaN) return Result(ones.toMap, aborted = true, elapsed)
      out += pFull -> e
    }
    Result(out.result(), aborted = false, elapsed)
  }

  /** Largest clause-cell union [[viaClauses]] enumerates (2^26 subsets). */
  private val MaxVars = 26

  /** Fast exact value via witness clauses: cells appearing in no clause of
    * `p` cannot influence fulfilment, so it suffices to enumerate the subsets
    * of the clause-cell union (each outside cell contributes a factor
    * `2 / 2 = 1`). Exact, and exponential only in the number of *involved*
    * cells — used as the ground truth for Monte-Carlo convergence tests.
    */
  def viaClauses(clauses: Seq[Set[Pos]]): Double = {
    if (clauses.isEmpty) return 1.0
    val mc = MonteCarlo.mask(clauses)
    require(mc.nVars <= MaxVars, s"clause-cell union of ${mc.nVars} cells refused")
    // MaxVars < 64, so every clause fits in word 0.
    val masks = mc.masks.map(_.headOption.getOrElse(0L))
    val total = 1L << mc.nVars
    var hit = 0L
    var mask = 0L
    while (mask < total) {
      var ok = true
      var i = 0
      while (ok && i < masks.length) {
        if ((masks(i) & mask) == 0L) ok = false
        i += 1
      }
      if (ok) hit += 1
      mask += 1
    }
    hit.toDouble / total
  }

  /** Clause-based exact entropy matrix (requires every position's clause-cell
    * union to be small).
    */
  def clauseMatrix(inst: Instance, fds: Seq[FD]): Map[Pos, Double] =
    PlaqueTest.runExact(inst, fds).byPosition
}
