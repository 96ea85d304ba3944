package repro.core

/** Exact entropy: Table 1's Prop. 2.9 enumeration, unoptimized and with the
  * paper's optimizations, plus the per-class formula behind
  * `PlaqueTest.runExact` ([[ofClass]]). Both Table 1 configurations run one
  * Def. 2.4 check, [[Kernel]], which keeps the paper's per-subset cost (see
  * [[compute]]).
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

  /** Largest instance Prop. 2.9 enumeration accepts: a variable set of its
    * cells is one `Long` bitmask, and 2^61 subsets of the other cells still
    * fit the `Long` loop counter.
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

  /** Definition 2.4's check `(I_{Q←X})_{p←a} ⊨ F*` for one instance, FD set
    * and probed position `p`, built once and then run on each subset `Q`.
    * Cell `(j, k)` is bit `j * arity + k`; `values` holds every cell's value
    * row-major, with the fresh value already at `p`. Each non-trivial FD and
    * each row pair `j1 < j2` is one check: `masks(c)` has both rows' LHS and
    * RHS cells, and `cells(starts(c) until starts(c + 1))` lists their
    * `(j1, j2)` cell offsets pairwise, LHS columns first and the RHS last.
    * Two rows can violate an FD only if neither has a variable in its LHS or
    * RHS cells, since variables are pairwise distinct and distinct from
    * every constant. The tests check this against the literal definition,
    * kept in `TestGen` as their oracle.
    */
  private[core] final class Kernel(inst: Instance, fds: Seq[FD], p: Pos) {
    require(inst.nCells <= MaxCells, s"naive enumeration over ${inst.nCells} cells refused (at most $MaxCells)")
    private val m = inst.arity
    private val values = Array.tabulate(inst.nCells)(i => inst.column(i % m)(i / m)).updated(p.row * m + p.col, inst.freshValue(p.col))
    private val checks = for {
      f <- fds.filterNot(_.trivial).toArray
      cols = f.lhs.toArray.sorted :+ f.rhs
      j1 <- 0 until inst.nRows
      j2 <- j1 + 1 until inst.nRows
    } yield cols.flatMap(k => Array(j1 * m + k, j2 * m + k))
    private val masks = checks.map(_.foldLeft(0L)((acc, o) => acc | 1L << o))
    private val starts = checks.scanLeft(0)(_ + _.length)
    private val cells = checks.flatten

    /** True iff the instance with variables at the cells of `vars` fulfils
      * the FDs (`p`'s bit must be clear).
      */
    def fulfills(vars: Long): Boolean = {
      var c = 0
      while (c < masks.length) {
        if ((vars & masks(c)) == 0L) {
          val rhs = starts(c + 1) - 2
          var i = starts(c)
          while (i < rhs && values(cells(i)) == values(cells(i + 1))) i += 2
          if (i == rhs && values(cells(rhs)) != values(cells(rhs + 1))) return false
        }
        c += 1
      }
      true
    }
  }

  /** Exact `INF_I(p | F)` by Prop. 2.9: enumerate **all** `2^(#Pos−1)`
    * subsets `Q` of `Pos∖{p}`, replace them by distinct variables, put a fresh
    * value at `p`, and count how many modified instances still fulfil
    * `closedFds`, which must be the closure `F*`. Subset `s` is the variable
    * set `(s & lo) | (s & ~lo) << 1` of [[Kernel.fulfills]]: `s` with a zero
    * bit inserted at `p`'s cell, `lo` masking the cells before it. Table 1
    * times the paper's algorithm, so every subset is evaluated, each checks
    * every FD of `closedFds` on every row pair, and values are compared
    * inside the subset loop: no sharing across subsets, no precomputed value
    * agreement (that is [[ofClass]]), one thread. Throws if the instance
    * has more than [[MaxCells]] cells. Returns `Double.NaN` if
    * `deadlineNanos` passes mid-enumeration (the paper's aborted 24-hour
    * runs).
    */
  private[core] def compute(inst: Instance, closedFds: Seq[FD], p: Pos, deadlineNanos: Long = Long.MaxValue): Double = {
    val kernel = new Kernel(inst, closedFds, p)
    val lo = (1L << (p.row * inst.arity + p.col)) - 1
    val total = 1L << (inst.nCells - 1)
    var count = 0L
    var s = 0L
    while (s < total) {
      if ((s & 0xfffffL) == 0L && System.nanoTime() > deadlineNanos) return Double.NaN
      if (kernel.fulfills((s & lo) | (s & ~lo) << 1)) count += 1
      s += 1
    }
    count.toDouble / total
  }

  /** Exact `INF` (Prop. 2.9) of a class representative `p = (j, B)` from
    * its witness-row signatures. Fix the deleted cells `S` of `p`'s row,
    * within the union `R` of the LHSs of the FDs in any signature (no other
    * cell of that row is in a clause). Witness rows have disjoint clause
    * cells (§3.1), so row `w` hits its clauses independently, with
    * probability `P_w(S) = ½ + ½·h`: `(w, B)` is deleted, or its deleted cells
    * meet the LHS of every FD of its signature whose LHS misses `S`, a
    * fraction `h` of the deletion sets of those LHSs' union. So `INF =
    * 2^-|R| · Σ_{S ⊆ R} Π_w P_w(S)`, exponential only in `|R|`. More than 64
    * closed FDs on `B`, an LHS column of 64 or more, or more than 26 cells
    * in `R` is an `IllegalArgumentException` naming `p`.
    */
  private[core] def ofClass(c: Clauses.Rep): Double = {
    require(c.lhs.length <= 64, s"position ${c.pos} has ${c.lhs.length} closed FDs on its RHS, more than the 64 exact evaluation allows")
    require(c.lhs.forall(_.forall(_ < 64)), s"position ${c.pos} has an LHS column of 64 or more, which exact evaluation refuses")
    val lhs = c.lhs.map(_.foldLeft(0L)((m, k) => m | 1L << k))
    val rows = c.sigs.map(sig => lhs.indices.collect { case f if (sig >>> f & 1L) != 0 => lhs(f) })
    val r = rows.iterator.flatten.foldLeft(0L)(_ | _)
    require(java.lang.Long.bitCount(r) <= 26,
      s"position ${c.pos} has ${java.lang.Long.bitCount(r)} LHS cells in its own row, more than the 26 exact evaluation allows")
    mean(r)(s => rows.foldLeft(1.0) { (product, sig) =>
      val live = sig.filter(l => (l & s) == 0L)
      product * (0.5 + 0.5 * mean(live.foldLeft(0L)(_ | _))(t => if (live.forall(l => (l & t) != 0L)) 1.0 else 0.0))
    })
  }

  /** The mean of `f` over the subsets of the bits of `m`, `m` first. */
  private def mean(m: Long)(f: Long => Double): Double = {
    var (s, sum) = (m, f(m))
    while (s != 0L) { s = (s - 1) & m; sum += f(s) }
    sum / (1L << java.lang.Long.bitCount(m))
  }

  /** Exact entropy matrix of `PlaqueTest.runExact`, refused as there. */
  def clauseMatrix(inst: Instance, fds: Seq[FD]): Map[Pos, Double] =
    PlaqueTest.runExact(inst, fds).byPosition
}
