package repro.core

/** Exact entropy computation with the paper's optimizations, plus the
  * clause-based exact evaluation behind `PlaqueTest.runExact`.
  */
object ExactEntropy {

  /** Why an exact run stopped before computing every position. */
  sealed trait Abort
  object Abort {

    /** The time budget elapsed (the paper's "–"). */
    case object Budget extends Abort

    /** The run refused to enumerate an instance of `cells` cells (more
      * than [[MaxCells]]).
      */
    final case class Oversized(cells: Int) extends Abort
  }

  /** Largest instance Prop. 2.9 enumeration accepts: 2^61 subsets of the
    * other cells still fit the `Long` loop counter.
    */
  private[core] val MaxCells = 62

  /** Result of an exact run over a whole instance.
    *
    * @param entropies per-position values computed so far (complete iff
    *                  `!aborted`); unique positions are reported as 1.0
    * @param elapsedMs wall-clock time spent
    * @param abort     why the run stopped early, if it did
    */
  final case class Result(entropies: Map[Pos, Double], elapsedMs: Long, abort: Option[Abort] = None) {

    /** True for either kind of [[Abort]] (Table 1 prints both as "–"). */
    def aborted: Boolean = abort.nonEmpty
  }

  /** The paper's "Unoptimized" configuration: Prop. 2.9 on the full instance
    * for every position. Rejects an FD that does not hold in `inst`
    * ([[FDs.requireHolds]]).
    */
  def naive(inst: Instance, fds: Seq[FD], budgetMs: Long = Long.MaxValue): Result =
    enumerate(inst, fds, budgetMs)(closed => (inst, closed, inst.positions.map(p => p -> p)))

  /** The paper's "Optimized" configuration: Prop. 3.2 (skip unique cells) +
    * Prop. 3.3 (reduce to `I(J₀,K₀)`), then Prop. 2.9 enumeration on the
    * subtable for each non-unique position. Rejects an FD that does not
    * hold in `inst` ([[FDs.requireHolds]]).
    */
  def optimized(inst: Instance, fds: Seq[FD], budgetMs: Long = Long.MaxValue): Result =
    enumerate(inst, fds, budgetMs) { closed =>
      val red = Reduction.reduce(inst, closed)
      val work = Uniqueness.nonUniquePositions(inst, closed).toVector.sortBy(p => (p.row, p.col)).map { p =>
        p -> red.toSub(p).getOrElse(throw new IllegalStateException(s"non-unique position $p outside I(J0,K0)"))
      }
      (red.sub, red.mapFds(closed), work)
    }

  /** Shared body of [[naive]] and [[optimized]]. Rejects an FD that does
    * not hold in `inst` ([[FDs.requireHolds]]) before the clock starts; the
    * clock then covers the closure, `plan` and the enumeration. `plan` maps `F*` to the
    * instance to enumerate, its FDs, and the `(position of inst, position
    * in that instance)` pairs to compute with [[NaiveEntropy.compute]];
    * every other position gets 1.0. A run with work on more than
    * [[MaxCells]] cells stops as [[Abort.Oversized]], one whose budget runs
    * out as [[Abort.Budget]]; either keeps the positions finished so far.
    */
  private def enumerate(inst: Instance, fds: Seq[FD], budgetMs: Long)(
      plan: Vector[FD] => (Instance, Seq[FD], Seq[(Pos, Pos)])): Result = {
    FDs.requireHolds(inst, fds)
    val t0 = System.nanoTime()
    val deadline = if (budgetMs == Long.MaxValue) Long.MaxValue else t0 + budgetMs * 1000000L
    def stop(out: Map[Pos, Double], abort: Option[Abort]) = Result(out, (System.nanoTime() - t0) / 1000000L, abort)

    val (sub, subFds, work) = plan(FDs.closure(fds))
    val computed = work.map(_._1).toSet
    var out = inst.positions.filterNot(computed).map(_ -> 1.0).toMap
    if (work.nonEmpty && sub.nCells > MaxCells) return stop(out, Some(Abort.Oversized(sub.nCells)))
    for ((p, q) <- work) {
      val e = NaiveEntropy.compute(sub, subFds, q, deadline)
      if (e.isNaN) return stop(out, Some(Abort.Budget))
      out += p -> e
    }
    stop(out, None)
  }

  /** Largest clause-cell union [[viaClauses]] enumerates (2^26 subsets). */
  private val MaxVars = 26

  /** Lane patterns of clause cells 0–5: lane `l` of word `v` is bit `v` of `l`. */
  private val LowCells = Array(
    0xaaaaaaaaaaaaaaaaL, 0xccccccccccccccccL, 0xf0f0f0f0f0f0f0f0L,
    0xff00ff00ff00ff00L, 0xffff0000ffff0000L, 0xffffffff00000000L)

  /** Fast exact value via witness clauses: cells appearing in no clause of
    * `p` cannot influence fulfilment, so it suffices to enumerate the subsets
    * of the clause-cell union (each outside cell contributes a factor
    * `2 / 2 = 1`). Exact, and exponential only in the number of *involved*
    * cells.
    *
    * The `2^n` subsets are evaluated as a truth table, 64 per word: lane `l`
    * of word `w` is the subset `(w << 6) | l` (bit `v` set = clause cell `v`
    * deleted). Cells 0–5 vary across lanes as the fixed [[LowCells]]
    * patterns; cells 6 and up are constant within a word, given by `w`'s
    * bits. A clause is hit in every lane of `w` if one of its high cells is
    * set in `w`, and otherwise in the OR of its low cells' patterns. A word's
    * hits are the AND over clauses (early exit once no lane is left),
    * counted with `Long.bitCount`; for `n < 6` only the low `2^n` lanes of
    * the single word count. Returns `hits / 2^n`, bit for bit what a
    * subset-at-a-time loop gives.
    */
  def viaClauses(clauses: Seq[Set[Pos]]): Double = truthTable(clauses, "")

  /** [[viaClauses]] for the clauses of `p`; a refusal names `p`. */
  private[core] def viaClauses(p: Pos, clauses: Seq[Set[Pos]]): Double = truthTable(clauses, s" of position $p")

  private def truthTable(clauses: Seq[Set[Pos]], of: => String): Double = {
    if (clauses.isEmpty) return 1.0
    val mc = MonteCarlo.mask(clauses)
    val n = mc.nVars
    require(n <= MaxVars, s"clause-cell union$of has $n cells, more than the $MaxVars exact enumeration allows")
    // MaxVars < 64, so every clause fits in one word.
    val bits = mc.vars.map(_.foldLeft(0L)((acc, v) => acc | 1L << v))
    val high = bits.map(_ >>> 6)
    val low = bits.map(b => (0 until 6).foldLeft(0L)((acc, v) => if ((b & 1L << v) != 0L) acc | LowCells(v) else acc))
    val lanes = if (n >= 6) -1L else (1L << (1 << n)) - 1
    val words = 1L << math.max(n - 6, 0)
    var hits = 0L
    var w = 0L
    while (w < words) {
      var alive = lanes
      var i = 0
      while (alive != 0L && i < low.length) {
        if ((high(i) & w) == 0L) alive &= low(i)
        i += 1
      }
      hits += java.lang.Long.bitCount(alive)
      w += 1
    }
    hits.toDouble / (1L << n)
  }

  /** Clause-based exact entropy matrix (every position's clause-cell union
    * must have at most 26 cells).
    */
  def clauseMatrix(inst: Instance, fds: Seq[FD]): Map[Pos, Double] =
    PlaqueTest.runExact(inst, fds).byPosition
}
