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

  /** @param maxExactDiff `max |high − runExact|` over all cells */
  final case class Comparison(
      low: PlaqueTest.Result,
      high: PlaqueTest.Result,
      maxDiff: Double,
      cellsDiffAbove002: Int,
      maxExactDiff: Double,
  ) {

    /** The ε every high-run cell meets with confidence 1 − 10⁻⁶. */
    def highEps: Double = MonteCarlo.accuracy(high.iterations, 1e-6)
  }

  def run(spark: SparkSession, lowIters: Long = 1000L, highIters: Long = 1000000L): Comparison = {
    val prep = Experiments.prepare(spark, "satellites")
    val low = PlaqueTest.run(spark, prep.inst, prep.fds, lowIters, seed = 1)
    val high = PlaqueTest.run(spark, prep.inst, prep.fds, highIters, seed = 2)
    val exact = PlaqueTest.runExact(prep.inst, prep.fds)
    def diffs(a: PlaqueTest.Result) = prep.inst.positions.map(p => math.abs(a.entropy(p) - high.entropy(p)))
    val lowDiffs = diffs(low)
    Comparison(low, high, lowDiffs.max, lowDiffs.count(_ > 0.02), diffs(exact).max)
  }

  def format(c: Comparison): String =
    f"""iterations compared: ${c.low.iterations} vs ${c.high.iterations}
       |max |entropy diff|  : ${c.maxDiff}%.4f
       |cells < 1 (high run): ${c.high.cellsBelowOne}
       |cells with diff>0.02: ${c.cellsDiffAbove002}
       |max |high - exact|  : ${c.maxExactDiff}%.4f (eps at delta=1e-6: ${c.highEps}%.4f)""".stripMargin
}
