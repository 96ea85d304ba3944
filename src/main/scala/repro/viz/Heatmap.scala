package repro.viz

import repro.core.PlaqueTest

/** The "plaque" rendering as data: normalised intensity buckets and an ASCII
  * heat map (graphical figures are out of scope for this reproduction, so the
  * visual artefact is a deterministic text rendering of the same color
  * scale).
  *
  * Like the paper, the color scale is calibrated per table: intensity 0 is
  * entropy 1 (white, "no plaque"), intensity 1 is the table's minimum entropy
  * (deepest blue).
  */
object Heatmap {

  /** Shade ramp from white to deepest plaque. */
  val Ramp: String = " .:-=+*#%@"

  /** Normalised plaque intensity of an entropy value for a table whose
    * minimum entropy is `minE`: 0 for entropy 1, 1 for `minE`.
    */
  def intensity(entropy: Double, minE: Double): Double = {
    require(entropy >= 0.0 && entropy <= 1.0, s"entropy $entropy out of [0,1]")
    if (minE >= 1.0) 0.0
    else math.min(1.0, math.max(0.0, (1.0 - entropy) / (1.0 - minE)))
  }

  /** Bucket an intensity into one of the ramp's shades. */
  def shade(intensity: Double): Char = {
    val i = math.min(Ramp.length - 1, (intensity * Ramp.length).toInt)
    Ramp(i)
  }

  /** ASCII heat map: one row per tuple, one column per attribute. */
  def render(result: PlaqueTest.Result): String = {
    val minE = result.minEntropy
    val header = result.inst.attrs.map(a => a.take(1).toUpperCase).mkString("")
    val body = result.entropies.map { row =>
      row.map(e => shade(intensity(e, minE))).mkString("")
    }
    (header +: body).mkString("\n")
  }

  /** CSV dump `(row, attr, entropy, intensity)` of the full matrix. */
  def csv(result: PlaqueTest.Result): String = {
    val minE = result.minEntropy
    val sb = new StringBuilder("row,attr,entropy,intensity\n")
    for (j <- 0 until result.inst.nRows; k <- result.inst.attrs.indices) {
      val e = result.entropies(j)(k)
      sb ++= f"$j,${result.inst.attrs(k)},$e%.4f,${intensity(e, minE)}%.4f\n"
    }
    sb.result()
  }
}
