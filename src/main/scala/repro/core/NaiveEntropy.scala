package repro.core

/** The paper's "Unoptimized" baseline: Prop. 2.9 evaluated literally.
  *
  * For a position `p`, enumerate **all** `2^(#Pos−1)` subsets `Q` of
  * `Pos∖{p}`, replace them by distinct variables, put a fresh value at `p`,
  * and count how many modified instances still fulfil the closed FD set.
  * Exponential in the number of cells of the *whole* instance — this is what
  * Table 1's "Unoptimized" column measures (the paper aborts it beyond 3 rows
  * of the satellites data after 24 h; we use a configurable time budget).
  */
object NaiveEntropy {

  /** Pre-lowered FD (sorted LHS array) for allocation-free checks. */
  private[core] def lower(fds: Seq[FD]): Array[(Array[Int], Int)] =
    fds.filterNot(_.trivial).map(f => (f.lhs.toArray.sorted, f.rhs)).toArray

  /** Allocation-free variant of [[Fulfills.check]]: variables are flagged in
    * `varFlags` (index `row * arity + col`) and the probed cell `(pRow,pCol)`
    * holds `fresh`.
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

  /** Exact `INF_I(p | F)` by full subset enumeration. `closedFds` must be the
    * closure `F*`. Throws if the instance has more than
    * [[ExactEntropy.MaxCells]] cells. Returns `Double.NaN` if `deadlineNanos`
    * passes mid-enumeration (the paper's aborted 24-hour runs).
    */
  def compute(inst: Instance, closedFds: Seq[FD], p: Pos, deadlineNanos: Long = Long.MaxValue): Double = {
    require(inst.nCells <= ExactEntropy.MaxCells,
      s"naive enumeration over ${inst.nCells} cells refused (at most ${ExactEntropy.MaxCells})")
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
}
