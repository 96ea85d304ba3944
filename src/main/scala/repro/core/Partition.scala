package repro.core

import scala.collection.immutable.BitSet
import scala.collection.mutable

/** Rows grouped by their values on an LHS, a partition as in TANE (Huhtala
  * et al., Comput. J. 1999): main code's one row grouping. Row `j` is in the
  * group `members(from(j) until until(j))`, listed ascending. Each LHS
  * column in turn (the instance's own `Int` array, `Instance.column`)
  * refines the group ids by the key (group id, value) packed into one
  * `Long`; an open-addressing table makes the ids dense, and a counting sort
  * lists the members.
  */
private[core] final class Partition private (gid: Array[Int], start: Array[Int], val members: Array[Int]) {
  def from(j: Int): Int = start(gid(j))
  def until(j: Int): Int = start(gid(j) + 1)

  /** The least row that agrees with row `j` on the LHS (`j` itself if none is less). */
  def first(j: Int): Int = members(from(j))

  /** Whether another row agrees with row `j` on the LHS. */
  def shared(j: Int): Boolean = until(j) - from(j) > 1

  /** Whether the LHS is a key: every group is one row, so no row is [[shared]]. */
  def key: Boolean = start.length - 1 == gid.length

  /** `(first(j), j)` for the least row `j` whose value in `col` differs from its group's first row's. */
  def violation(col: Array[Int]): Option[(Int, Int)] = {
    var j = 0
    while (j < gid.length && col(first(j)) == col(j)) j += 1
    Option.when(j < gid.length)((first(j), j))
  }
}

private[core] object Partition {

  /** Partitions `inst`'s rows by an LHS (the empty one gives one group),
    * reusing one id table and grouping each LHS once (memoized by its column bitmask).
    */
  def of(inst: Instance): Set[Int] => Partition = {
    val (n, ids) = (inst.nRows, new DenseIds(inst.nRows))
    val memo = mutable.HashMap.empty[BitSet, Partition]
    lhs => memo.getOrElseUpdate(BitSet.fromSpecific(lhs), {
      var gid = new Array[Int](n)
      var nGroups = math.min(n, 1)
      for (c <- lhs) {
        ids.reset()
        val (col, next) = (inst.column(c), new Array[Int](n))
        var j = 0
        while (j < n) { next(j) = ids(gid(j).toLong << 32 | (col(j) & 0xffffffffL)); j += 1 }
        gid = next
        nGroups = ids.size
      }
      val start = new Array[Int](nGroups + 1)
      gid.foreach(g => start(g + 1) += 1)
      for (g <- 0 until nGroups) start(g + 1) += start(g)
      val fill = start.clone()
      val members = new Array[Int](n)
      for (j <- 0 until n) { members(fill(gid(j))) = j; fill(gid(j)) += 1 }
      new Partition(gid, start, members)
    })
  }

  /** Dense ids `0, 1, …` for the distinct `Long` keys of one pass over at
    * most `n` rows: linear probing in a table of at least `2n` slots, which
    * [[reset]] clears by moving to a new epoch.
    */
  private final class DenseIds(n: Int) {
    private val bits = 32 - Integer.numberOfLeadingZeros(math.max(2 * n - 1, 1))
    private val keys = new Array[Long](1 << bits)
    private val ids = new Array[Int](1 << bits)
    private val epochOf = new Array[Int](1 << bits)
    private var epoch = 0
    var size = 0

    def reset(): Unit = { epoch += 1; size = 0 }

    def apply(key: Long): Int = {
      var i = ((key * 0x9e3779b97f4a7c15L) >>> (64 - bits)).toInt
      while (epochOf(i) == epoch && keys(i) != key) i = (i + 1) & (keys.length - 1)
      if (epochOf(i) != epoch) { epochOf(i) = epoch; keys(i) = key; ids(i) = size; size += 1 }
      ids(i)
    }
  }
}
