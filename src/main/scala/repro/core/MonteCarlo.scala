package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import org.apache.spark.sql.SparkSession

/** Monte-Carlo approximation of information content (Section 3.2).
  *
  * Samples subsets `Q ⊆ Pos∖{p}` uniformly (every cell deleted independently
  * with probability ½) and averages `X(Q) ∈ {0,1}`. Cells outside every
  * witness clause of `p` never influence `X`, so only clause cells are
  * sampled — the distribution of `X` is identical.
  *
  * The sampler is bit-sliced: 64 samples run at once, one per bit lane.
  * Word `v` of a batch holds clause cell `v` of all 64 samples (bit `i` set =
  * the cell is deleted in sample `i`), one word of SplitMix64, the generator
  * of `java.util.SplittableRandom`, drawn by random access (the `k`-th word
  * is a pure function of the seed and `k`; Steele, Lea, Flood, OOPSLA 2014).
  * A clause is hit in the lanes of the OR of its cells' words, and `X = 1` in
  * the lanes of the AND over all clauses. Each lane's cells are independent
  * fair coins, so every sample has the §3.2 distribution and the Thm. 3.6
  * bound holds unchanged. A witness clause of an FD with `s` LHS columns has
  * `2s + 1` cells; those of at most 3 cells (`s ≤ 1`, every clause of the
  * five mimics) are evaluated in one unrolled pass over a flat index array.
  * The exact value (`ExactEntropy.ofClass`) needs no clause loop: it is a
  * short formula over the class's witness-row signatures.
  *
  * Non-unique cells whose clauses have the same shape (`Clauses.classes`)
  * share one estimate, that of the class's least `(row, col)` cell. Its
  * budget is cut into blocks of 25 000 iterations, and block `b` of cell `p`
  * draws from a generator seeded by a pure function of `(seed, p.row, p.col,
  * b)`. One block runner sums their integer hit counts on any number of
  * threads (one per core for `PlaqueTest.run` and [[estimateSpark]]), so
  * every thread count returns the same matrix.
  */
object MonteCarlo {

  /** Iterations needed for accuracy ε with confidence 1−δ (Theorem 3.6):
    * `n ≥ 2·ln(2/δ)/ε²`.
    */
  def requiredIterations(eps: Double, delta: Double): Long = {
    require(eps > 0 && delta > 0 && delta < 1, s"eps must be positive and delta in (0, 1), got eps = $eps, delta = $delta")
    math.ceil(2.0 * math.log(2.0 / delta) / (eps * eps)).toLong
  }

  /** Accuracy ε reached with confidence 1−δ after `n` iterations (inverse of
    * [[requiredIterations]]), used to annotate benchmark output.
    */
  def accuracy(n: Long, delta: Double): Double = {
    require(n > 0, s"iteration count must be positive, got $n")
    require(delta > 0 && delta < 1, s"delta must lie in (0, 1), got $delta")
    math.sqrt(2.0 * math.log(2.0 / delta) / n)
  }

  /** Clause set lowered to cell indices over its cell union: cells are
    * numbered `0 until nVars`, and `vars(i)` lists the cells of clause `i`
    * in ascending order.
    */
  final case class MaskedClauses(nVars: Int, vars: Array[Array[Int]])

  /** Lower clauses over positions to cell indices, as [[number]] numbers
    * their cell keys.
    */
  def mask(clauses: Seq[Set[Pos]]): MaskedClauses =
    number(clauses.iterator.map(_.iterator.map(p => key(p.row, p.col)).toArray).toArray)

  /** The key of cell `(row, col)`; keys sort as `(row, col)`. */
  private[core] def key(row: Int, col: Int): Long = row.toLong << 32 | col

  /** Lower clauses over cell keys ([[key]]) to cell indices: cells are
    * numbered in first-seen order over the clauses, each clause's cells
    * taken in ascending `(row, col)` order. Sorts each clause in place. The
    * one numbering behind [[mask]] and `Clauses.classes`, so the sampler
    * draws the same streams for both.
    */
  private[core] def number(clauses: Array[Array[Long]]): MaskedClauses = {
    val ids = new scala.collection.mutable.LongMap[Int]
    val vars = clauses.map { clause =>
      java.util.Arrays.sort(clause)
      clause.map(ids.getOrElseUpdate(_, ids.size)).sorted
    }
    MaskedClauses(ids.size, vars)
  }

  /** One MC estimate: fraction of sampled deletions that hit every clause. */
  def estimate(mc: MaskedClauses, iters: Long, seed: Long): Double = {
    require(iters > 0, s"iteration count must be positive, got $iters")
    new Kernel(mc).hits(iters, seed).toDouble / iters
  }

  /** SplitMix64's increment: the `k`-th `nextLong` (from 0) of
    * `new java.util.SplittableRandom(s)` is `mix64(s + (k + 1) · Gamma)`.
    */
  private[core] val Gamma = 0x9e3779b97f4a7c15L

  /** A clause set laid out once for the bit-sliced clause loop of [[hits]].
    * Clauses of 1–3 cells go into one flat array, three word indices each, a
    * shorter clause padded by repeating a cell (OR is idempotent); longer and
    * empty clauses keep a loop over their cells.
    * `offs(v) = (v + 1) · Gamma`, so that word `v` of batch `t` of the stream
    * seeded `s` is `mix64(s + t · nVars · Gamma + offs(v))`: the
    * `(t · nVars + v)`-th `nextLong` of `new SplittableRandom(s)`, drawn by
    * random access in a loop without a carried dependency.
    */
  private[core] final class Kernel(mc: MaskedClauses) {
    private val flat = mc.vars.filter(c => c.length >= 1 && c.length <= 3).flatMap(c => Array(c(0), c(c.length / 2), c(c.length - 1)))
    private val long = mc.vars.filter(c => c.length == 0 || c.length > 3)
    private val offs = Array.tabulate(mc.nVars)(v => (v + 1) * Gamma)

    /** Number of `iters` samples of the stream seeded `seed` that hit every
      * clause, 64 per batch. The AND does not depend on the order, so the
      * count is that of a clause-by-clause pass.
      */
    def hits(iters: Long, seed: Long): Long = {
      val deleted = new Array[Long](offs.length)
      var base = seed
      var total = 0L
      var left = iters
      while (left > 0) {
        var v = 0
        while (v < deleted.length) { deleted(v) = mix64(base + offs(v)); v += 1 }
        // Lanes still hitting every clause; the last batch counts `left` lanes.
        var alive = if (left >= 64) -1L else (1L << left) - 1
        var i = 0
        while (alive != 0L && i < flat.length) {
          alive &= deleted(flat(i)) | deleted(flat(i + 1)) | deleted(flat(i + 2))
          i += 3
        }
        var ci = 0
        while (alive != 0L && ci < long.length) {
          val c = long(ci)
          var hit = 0L
          var k = 0
          while (k < c.length) { hit |= deleted(c(k)); k += 1 }
          alive &= hit
          ci += 1
        }
        total += java.lang.Long.bitCount(alive)
        left -= 64
        base += offs.length * Gamma
      }
      total
    }
  }

  /** Iterations per block; the block index enters the block's seed. */
  private val BlockIters = 25000L

  /** Hits of block `b` of position `p`'s `iters` budget, seeded by a pure
    * function of `(seed, p.row, p.col, b)` so that any schedule of the blocks
    * sums to the same count.
    */
  private def blockHits(p: Pos, kernel: Kernel, seed: Long, b: Int, iters: Long): Long = {
    val s = Seq(p.row.toLong, p.col.toLong, b.toLong).foldLeft(seed)((h, x) => mix64(h + (x + 1) * Gamma))
    kernel.hits(math.min(BlockIters, iters - b * BlockIters), s)
  }

  /** SplitMix64's finalizer (Stafford's Mix13), as in `java.util.SplittableRandom`. */
  private[core] def mix64(z0: Long): Long = {
    val z1 = (z0 ^ (z0 >>> 30)) * 0xbf58476d1ce4e5b9L
    val z2 = (z1 ^ (z1 >>> 27)) * 0x94d049bb133111ebL
    z2 ^ (z2 >>> 31)
  }

  /** MC entropy estimates for the given positions: grouped into classes by
    * `Clauses.representatives`, whose representatives get their clause sets
    * lowered by [[mask]] and sampled as `PlaqueTest.run` samples its class
    * representatives; every member gets its representative's value. A
    * position with a clause that touches no row or two rows besides its own
    * is estimated on its own.
    *
    * @return per-position estimates for exactly the keys of `clausesByPos`
    */
  def estimateSpark(
      spark: SparkSession,
      clausesByPos: Map[Pos, Seq[Set[Pos]]],
      iters: Long,
      seed: Long = 42,
  ): Map[Pos, Double] = {
    val repOf = Clauses.representatives(clausesByPos)
    val reps = repOf.values.toVector.distinct
    val value = reps.zip(sample(reps.map(p => p -> mask(clausesByPos(p))), iters, seed, workers(spark))).toMap
    repOf.map { case (p, rep) => p -> value(rep) }
  }

  /** Sampler threads for a session: `defaultParallelism`, at most one per processor. */
  private[core] def workers(spark: SparkSession): Int =
    math.min(spark.sparkContext.defaultParallelism, Runtime.getRuntime.availableProcessors)

  /** MC estimates for lowered clause sets on up to `workers` daemon threads
    * `plaque-mc-<n>`, joined before the call returns: one value per entry of
    * `masked`, in its order. A value depends only on its position, clauses,
    * `iters` and `seed`, not on the order or the workers. Each set is laid
    * out once, as one [[Kernel]] that all its blocks share. Work item `t` is
    * block `t % nBlocks` of entry `t / nBlocks`; workers claim items from one
    * counter and store each block's hits in the item's slot. A worker's
    * exception stops the others and is rethrown; a position with a block
    * that never reported is an `IllegalStateException`, never a silent 0.
    */
  private[core] def sample(masked: Seq[(Pos, MaskedClauses)], iters: Long, seed: Long, workers: Int): Array[Double] = {
    require(iters > 0, s"iteration count must be positive, got $iters")
    val cells = masked.toArray
    val kernels = cells.map { case (_, mc) => new Kernel(mc) }
    val nBlocks = Math.toIntExact((iters + BlockIters - 1) / BlockIters)
    val hit = Array.fill(Math.multiplyExact(cells.length, nBlocks))(-1L)
    val next = new AtomicInteger
    val failure = new AtomicReference[Throwable]
    def work(): Unit =
      try {
        var t = next.getAndIncrement()
        while (t < hit.length) {
          hit(t) = blockHits(cells(t / nBlocks)._1, kernels(t / nBlocks), seed, t % nBlocks, iters)
          t = next.getAndIncrement()
        }
      } catch { case e: Throwable => failure.compareAndSet(null, e); next.set(hit.length) }
    val threads = Array.tabulate(math.min(workers, hit.length)) { i =>
      val t = new Thread(() => work(), s"plaque-mc-$i")
      t.setDaemon(true)
      t
    }
    // On an early exit (a failed start, an interrupt) stop the workers and wait for them.
    try { threads.foreach(_.start()); threads.foreach(_.join()) }
    finally { next.set(hit.length); threads.foreach(_.join()) }
    Option(failure.get).foreach(e => throw e)
    Array.tabulate(cells.length) { pi =>
      val blocks = hit.slice(pi * nBlocks, (pi + 1) * nBlocks)
      if (blocks.contains(-1L))
        throw new IllegalStateException(s"position ${cells(pi)._1}: ${blocks.count(_ < 0)} of $nBlocks MC blocks missing")
      blocks.sum.toDouble / iters
    }
  }
}
