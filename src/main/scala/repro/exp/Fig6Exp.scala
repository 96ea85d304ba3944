package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{MonteCarlo, PlaqueTest}

/** Figure 6: visual stability of the Monte-Carlo approximation — compare the
  * satellites entropy matrix at a low and a high iteration count. The paper
  * (1k vs 1M iterations) reports a maximum cell difference of ≈ 0.048, 117
  * cells below 1, and only 9 cells with a difference above 0.02. Beyond the
  * paper, the high run is also compared with the exact matrix
  * (`PlaqueTest.runExact`): its true error next to the Thm. 3.6 ε.
  */
object Fig6Exp {

  /** @param maxExactDiff `max |high − runExact|` over all cells
    * @param highEps      `MonteCarlo.accuracy(highIters, 1e-6)`: the ε every
    *                     high-run cell meets with confidence 1 − 10⁻⁶
    */
  final case class Comparison(
      lowIters: Long,
      highIters: Long,
      low: PlaqueTest.Result,
      high: PlaqueTest.Result,
      maxDiff: Double,
      cellsBelowOne: Int,
      cellsDiffAbove002: Int,
      maxExactDiff: Double,
      highEps: Double,
  )

  def run(spark: SparkSession, lowIters: Long = 1000L, highIters: Long = 100000L): Comparison = {
    val prep = Experiments.prepare(spark, "satellites")
    val low = PlaqueTest.run(spark, prep.inst, prep.fds, lowIters, seed = 1)
    val high = PlaqueTest.run(spark, prep.inst, prep.fds, highIters, seed = 2)
    val exact = PlaqueTest.runExact(prep.inst, prep.fds)
    val cells = for (j <- prep.inst.rows.indices; k <- prep.inst.attrs.indices) yield (j, k)
    val diffs = cells.map { case (j, k) => math.abs(low.entropies(j)(k) - high.entropies(j)(k)) }
    Comparison(
      lowIters,
      highIters,
      low,
      high,
      diffs.max,
      high.entropies.flatten.count(_ < 1.0),
      diffs.count(_ > 0.02),
      cells.map { case (j, k) => math.abs(high.entropies(j)(k) - exact.entropies(j)(k)) }.max,
      MonteCarlo.accuracy(highIters, 1e-6),
    )
  }

  def format(c: Comparison): String =
    f"""iterations compared: ${c.lowIters} vs ${c.highIters}
       |max |entropy diff|  : ${c.maxDiff}%.4f
       |cells < 1 (high run): ${c.cellsBelowOne}
       |cells with diff>0.02: ${c.cellsDiffAbove002}
       |max |high - exact|  : ${c.maxExactDiff}%.4f (eps at delta=1e-6: ${c.highEps}%.4f)""".stripMargin
}
