package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.PlaqueTest

/** Figure 4: histogram over the entropy values of the first 150 rows of the
  * satellites dataset. Headline statistics reported by the paper: ≈ 90 % of
  * the 1 200 cells have entropy 1; the minimum is close to 0.6; only ≈ 5 %
  * are below 0.9.
  */
object Fig4Exp {

  final case class Histogram(result: PlaqueTest.Result, fractionBelow09: Double)

  private val BucketWidth = 0.05

  def run(spark: SparkSession, iterations: Long = 100000L): Histogram = {
    val prep = Experiments.prepare(spark, "satellites")
    val res = PlaqueTest.run(spark, prep.inst, prep.fds, iterations)
    Histogram(res, res.entropies.flatten.count(_ < 0.9).toDouble / res.cells)
  }

  def format(h: Histogram): String = {
    val r = h.result
    val buckets = r.histogram(BucketWidth)
    val rows = buckets.zipWithIndex.collect { case ((lo, n), i) if n > 0 =>
      val close = if (i == buckets.size - 1) "]" else ")" // the last bucket also holds 1.0
      Seq(f"[$lo%.2f, ${lo + BucketWidth}%.2f$close", n.toString, "#" * math.max(1, math.ceil(40.0 * n / r.cells).toInt))
    }
    Experiments.formatTable(Seq("entropy bucket", "cells", ""), rows) +
      f"\n\ncells=${r.cells} fractionOnes=${r.fractionOnes}%.3f fraction<0.9=${h.fractionBelow09}%.3f min=${r.minEntropy}%.3f"
  }
}
