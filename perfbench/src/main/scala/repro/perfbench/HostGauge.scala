package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Gauges how fast the host runs during a run. On a shared host the cores run
  * at a speed that drifts by up to 2x over minutes and by tens of percent
  * over seconds, and every wall time of a run drifts with it. The gauge is a
  * fixed piece of work that touches nothing of the program under test,
  * sorting the same 2^20 pseudo-random ints, sampled right before and right
  * after each timed unit of the run. [[scale]] turns the run's wall times
  * into the times they would have taken with the gauge at
  * [[HostGauge.NominalMs]].
  */
final class HostGauge {
  private val samples = ArrayBuffer.empty[Double]

  /** Runs `body` between two gauge samples; returns its result and wall ms. */
  def around[A](body: => A): (A, Double) = {
    samples += HostGauge.sample()
    val t0 = System.nanoTime()
    val a = body
    val ms = (System.nanoTime() - t0) / 1e6
    samples += HostGauge.sample()
    (a, ms)
  }

  def sampleMs: Seq[Double] = samples.toSeq

  def medianMs: Double = Main.median(samples)

  def scale: Double = HostGauge.NominalMs / medianMs
}

object HostGauge {

  /** The gauge time the end-to-end metrics are scaled to. It only fixes the
    * scale: the 4-vCPU VM of the README's numbers sorts the array in about
    * this time when its host is quiet.
    */
  val NominalMs = 80.0

  private val input: Array[Int] = {
    val rnd = new java.util.Random(20230501L)
    Array.fill(1 << 20)(rnd.nextInt())
  }

  /** Wall ms of one sort of a fresh copy of the input. */
  def sample(): Double = {
    val a = input.clone()
    val t0 = System.nanoTime()
    java.util.Arrays.sort(a)
    (System.nanoTime() - t0) / 1e6
  }

  /** Runs the gauge until the JIT has compiled it. */
  def warmUp(): Unit = for (_ <- 1 to 20) sample()
}
