package repro.core

/** Exact entropy: Table 1's Prop. 2.9 enumeration, unoptimized and with the
  * paper's optimizations, plus the clause-based exact evaluation behind
  * `PlaqueTest.runExact`.
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
  private val MaxCells = 62

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
    * for every position, exponential in the cells of the whole instance (the
    * paper aborts it beyond 3 rows of the satellites data after 24 h).
    * Rejects an FD that does not hold in `inst` ([[FDs.requireHolds]]).
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
      // Every non-unique (j, B) has j ∈ J₀ and B ∈ K₀, so it is in the subtable.
      val work = red.sub.positions.map(q => red.toFull(q) -> q).filter { case (p, _) => red.nonUnique(p) }
      (red.sub, red.mapFds(closed), work)
    }

  /** Shared body of [[naive]] and [[optimized]]. Rejects an FD that does
    * not hold in `inst` ([[FDs.requireHolds]]) before the clock starts; the
    * clock then covers the closure, `plan` and the enumeration. `plan` maps `F*` to the
    * instance to enumerate, its FDs, and the `(position of inst, position
    * in that instance)` pairs to compute with [[compute]];
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
    var abort: Option[Abort] = if (work.nonEmpty && sub.nCells > MaxCells) Some(Abort.Oversized(sub.nCells)) else None
    val todo = work.iterator
    while (abort.isEmpty && todo.hasNext) {
      val (p, q) = todo.next()
      val e = compute(sub, subFds, q, deadline)
      if (e.isNaN) abort = Some(Abort.Budget) else out += p -> e
    }
    stop(out, abort)
  }

  /** Pre-lowered FD (sorted LHS array) for allocation-free checks. */
  private[core] def lower(fds: Seq[FD]): Array[(Array[Int], Int)] =
    fds.filterNot(_.trivial).map(f => (f.lhs.toArray.sorted, f.rhs)).toArray

  /** `(I_{Q←X})_{p←a} ⊨ F*` (Definition 2.4), allocation-free: variables
    * are flagged in `varFlags` (index `row * arity + col`) and the probed cell
    * `(pRow,pCol)` holds `fresh`. Two rows can violate an FD only if neither
    * has a variable in its LHS or RHS cells, since variables are pairwise
    * distinct and distinct from every constant. The tests check this against
    * the literal definition, kept in `TestGen` as their oracle.
    */
  private[core] def checkFast(
      inst: Instance,
      fds: Array[(Array[Int], Int)],
      varFlags: Array[Boolean],
      pRow: Int,
      pCol: Int,
      fresh: Int,
  ): Boolean = {
    val m = inst.arity
    val n = inst.nRows
    val rows = inst.rows
    var fi = 0
    while (fi < fds.length) {
      val lhs = fds(fi)._1
      val rhs = fds(fi)._2
      var j1 = 0
      while (j1 < n) {
        if (!varFlags(j1 * m + rhs) && allConst(lhs, varFlags, j1, m)) {
          var j2 = j1 + 1
          while (j2 < n) {
            if (!varFlags(j2 * m + rhs) && allConst(lhs, varFlags, j2, m)) {
              var eq = true
              var li = 0
              while (eq && li < lhs.length) {
                val c = lhs(li)
                val v1 = if (j1 == pRow && c == pCol) fresh else rows(j1)(c)
                val v2 = if (j2 == pRow && c == pCol) fresh else rows(j2)(c)
                if (v1 != v2) eq = false
                li += 1
              }
              if (eq) {
                val b1 = if (j1 == pRow && rhs == pCol) fresh else rows(j1)(rhs)
                val b2 = if (j2 == pRow && rhs == pCol) fresh else rows(j2)(rhs)
                if (b1 != b2) return false
              }
            }
            j2 += 1
          }
        }
        j1 += 1
      }
      fi += 1
    }
    true
  }

  private def allConst(lhs: Array[Int], varFlags: Array[Boolean], j: Int, m: Int): Boolean = {
    var i = 0
    while (i < lhs.length) {
      if (varFlags(j * m + lhs(i))) return false
      i += 1
    }
    true
  }

  /** Exact `INF_I(p | F)` by Prop. 2.9: enumerate **all** `2^(#Pos−1)`
    * subsets `Q` of `Pos∖{p}`, replace them by distinct variables, put a fresh
    * value at `p`, and count how many modified instances still fulfil
    * `closedFds`, which must be the closure `F*`. Throws if the instance has
    * more than [[MaxCells]] cells. Returns `Double.NaN` if `deadlineNanos`
    * passes mid-enumeration (the paper's aborted 24-hour runs).
    */
  private[core] def compute(inst: Instance, closedFds: Seq[FD], p: Pos, deadlineNanos: Long = Long.MaxValue): Double = {
    require(inst.nCells <= MaxCells,
      s"naive enumeration over ${inst.nCells} cells refused (at most $MaxCells)")
    val others = inst.positions.filterNot(_ == p)
    val n = others.length
    val fds = lower(closedFds)
    val fresh = inst.freshValue(p.col)
    val flags = new Array[Boolean](inst.nCells)
    val m = inst.arity
    val total = 1L << n
    var count = 0L
    var mask = 0L
    while (mask < total) {
      if ((mask & 0xfffffL) == 0L && System.nanoTime() > deadlineNanos) return Double.NaN
      var i = 0
      while (i < n) {
        val q = others(i)
        flags(q.row * m + q.col) = ((mask >>> i) & 1L) == 1L
        i += 1
      }
      if (checkFast(inst, fds, flags, p.row, p.col, fresh)) count += 1
      mask += 1
    }
    count.toDouble / total
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
    * subset-at-a-time loop gives. `mc` are the lowered clauses of `p`,
    * which a refusal names.
    */
  private[core] def viaClauses(p: Pos, mc: MonteCarlo.MaskedClauses): Double = {
    if (mc.vars.isEmpty) return 1.0
    val n = mc.nVars
    require(n <= MaxVars, s"clause-cell union of position $p has $n cells, more than the $MaxVars exact enumeration allows")
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
