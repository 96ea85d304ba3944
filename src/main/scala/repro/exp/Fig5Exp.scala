package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._

/** Figure 5 (tabulated): runtime of the Monte-Carlo approximation (with the
  * §3.1 optimizations) for different satellite-data prefixes and iteration
  * counts.
  *
  * The paper times a single-threaded prototype that samples every cell, so
  * this grid times closure + clauses + per-position MC on one thread:
  * `FDs.closure`, `Clauses.forAllPositions`, and [[MonteCarlo.mask]] and
  * [[MonteCarlo.estimate]] for each non-unique position. The plaque pipeline
  * (`PlaqueTest.run`, the one-thread-per-core runner of Figs. 3/6) estimates
  * each clause shape only once, which would hide the per-cell cost the paper
  * timed. The sampler is bit-sliced (64 samples per machine word), so one
  * iteration costs about a 64th of a clause pass. The reproduced signals are
  * runtime ≈ linear in iterations and growing with the row count.
  */
object Fig5Exp {

  final case class Cell(rows: Int, iterations: Long, seconds: Double)

  val DefaultRows: Seq[Int] = Seq(10, 30, 50, 70, 90, 110, 130, 150)
  val DefaultIters: Seq[Long] = Seq(10000L, 100000L, 1000000L)

  def run(
      spark: SparkSession,
      rowCounts: Seq[Int] = DefaultRows,
      iterCounts: Seq[Long] = DefaultIters,
  ): Seq[Cell] = {
    // JIT warm-up so the first grid cell is not charged for compilation.
    val warm = Experiments.satellitesPrefix(spark, 20)
    perCell(warm.inst, warm.fds, 20000)
    for (r <- rowCounts; it <- iterCounts) yield {
      val prep = Experiments.satellitesPrefix(spark, r)
      val (_, ms) = Experiments.timeMs(perCell(prep.inst, prep.fds, it))
      Cell(r, it, ms / 1000.0)
    }
  }

  /** The per-cell MC entropies of every non-unique position, each cell seeded by its own position. */
  private def perCell(inst: Instance, fds: Seq[FD], iters: Long): Map[Pos, Double] =
    Clauses.forAllPositions(inst, FDs.closure(fds)).map { case (p, cls) =>
      p -> MonteCarlo.estimate(MonteCarlo.mask(cls), iters, p.row.toLong << 32 | p.col)
    }

  def format(cells: Seq[Cell]): String = {
    val rowCounts = cells.map(_.rows).distinct.sorted
    val iterCounts = cells.map(_.iterations).distinct.sorted
    Experiments.formatTable(
      "#Rows \\ iters" +: iterCounts.map(_.toString),
      rowCounts.map(r =>
        r.toString +: iterCounts.map(it =>
          f"${cells.find(c => c.rows == r && c.iterations == it).get.seconds}%.3f")),
    )
  }
}
