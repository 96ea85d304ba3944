package repro.core

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

/** Monte-Carlo approximation of information content (Section 3.2).
  *
  * Samples subsets `Q ⊆ Pos∖{p}` uniformly (every cell deleted independently
  * with probability ½) and averages `X(Q) ∈ {0,1}`. Cells outside every
  * witness clause of `p` never influence `X`, so only clause cells are
  * sampled — the distribution of `X` is identical, each iteration is
  * O(#clauses) via bitmask words.
  */
object MonteCarlo {

  /** Iterations needed for accuracy ε with confidence 1−δ (Theorem 3.6):
    * `n ≥ 2·ln(2/δ)/ε²`.
    */
  def requiredIterations(eps: Double, delta: Double): Long = {
    require(eps > 0 && delta > 0, "eps and delta must be positive")
    math.ceil(2.0 * math.log(2.0 / delta) / (eps * eps)).toLong
  }

  /** Accuracy ε reached with confidence 1−δ after `n` iterations (inverse of
    * [[requiredIterations]]), used to annotate benchmark output.
    */
  def accuracy(n: Long, delta: Double): Double = {
    require(n > 0, s"iteration count must be positive, got $n")
    math.sqrt(2.0 * math.log(2.0 / delta) / n)
  }

  /** Clause set pre-lowered to bitmask words over its cell union. */
  final case class MaskedClauses(nVars: Int, masks: Array[Array[Long]]) {
    def nWords: Int = (nVars + 63) >>> 6
  }

  /** Lower clauses over positions to packed bitmasks. */
  def mask(clauses: Seq[Set[Pos]]): MaskedClauses = {
    val vars = clauses.flatten.distinct.toVector
    val idx = vars.zipWithIndex.toMap
    val nWords = (vars.size + 63) >>> 6
    val masks = clauses.map { c =>
      val w = new Array[Long](nWords)
      for (p <- c) {
        val i = idx(p)
        w(i >>> 6) |= 1L << (i & 63)
      }
      w
    }.toArray
    MaskedClauses(vars.size, masks)
  }

  /** One MC estimate: fraction of sampled deletions that hit every clause. */
  def estimate(mc: MaskedClauses, iters: Long, seed: Long): Double = {
    require(iters > 0, s"iteration count must be positive, got $iters")
    if (mc.masks.isEmpty) return 1.0
    val rng = new SplittableRandom(seed)
    val nWords = mc.nWords
    val sample = new Array[Long](nWords)
    var hits = 0L
    var it = 0L
    while (it < iters) {
      var w = 0
      while (w < nWords) { sample(w) = rng.nextLong(); w += 1 }
      var ok = true
      var ci = 0
      while (ok && ci < mc.masks.length) {
        val cm = mc.masks(ci)
        var any = false
        var wi = 0
        while (!any && wi < nWords) {
          if ((cm(wi) & sample(wi)) != 0L) any = true
          wi += 1
        }
        if (!any) ok = false
        ci += 1
      }
      if (ok) hits += 1
      it += 1
    }
    hits.toDouble / iters
  }

  /** Local MC entropy matrix: unique positions get exactly 1.0 (Prop. 3.2),
    * the others are estimated with `iters` samples each, cell `(j, k)` from
    * seed `seed ^ (j << 20) ^ k`.
    */
  def matrixLocal(inst: Instance, fds: Seq[FD], iters: Long, seed: Long = 42): Map[Pos, Double] =
    PlaqueTest.pipeline(inst, fds, iters)(_.map { case (p, cls) =>
      p -> estimate(mask(cls), iters, seed ^ (p.row.toLong << 20) ^ p.col)
    }).byPosition

  /** Iterations per [[estimateSpark]] task; the block index enters the task seed. */
  private val BlockIters = 25000L

  /** Distributed MC entropy estimates for the given positions.
    *
    * The clause sets are broadcast; the iteration budget of every position is
    * split into blocks that Spark schedules across cores/executors as a
    * `Dataset[(position, block)]`; partial hit counts are summed with a
    * `groupBy`/`sum` aggregation.
    *
    * @return per-position estimates for exactly the keys of `clausesByPos`
    */
  def estimateSpark(
      spark: SparkSession,
      clausesByPos: Map[Pos, Seq[Set[Pos]]],
      iters: Long,
      seed: Long = 42,
  ): Map[Pos, Double] = {
    import spark.implicits._
    require(iters > 0, s"iteration count must be positive, got $iters")
    if (clausesByPos.isEmpty) return Map.empty
    val posList = clausesByPos.keys.toVector.sortBy(p => (p.row, p.col))
    val masked = posList.map(p => mask(clausesByPos(p))).toArray
    val bc = spark.sparkContext.broadcast(masked)

    val tasks = for {
      pi <- posList.indices
      b <- 0L until (iters + BlockIters - 1) / BlockIters
    } yield (pi, b, math.min(BlockIters, iters - b * BlockIters))

    val hitsByPos = tasks
      .toDS()
      .repartition(math.min(tasks.size, spark.sparkContext.defaultParallelism * 4))
      .map { case (pi, b, n) =>
        val h = estimate(bc.value(pi), n, seed ^ (pi.toLong * 0x9e3779b97f4a7c15L) ^ b) * n
        (pi, math.round(h))
      }
      .groupByKey(_._1)
      .mapValues(_._2)
      .reduceGroups(_ + _)
      .collect()
      .toMap

    bc.unpersist()
    posList.zipWithIndex.map { case (p, pi) =>
      p -> hitsByPos.getOrElse(pi, 0L).toDouble / iters
    }.toMap
  }
}
