package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.Datasets
import repro.fdiscovery.FDDiscovery

/** Shared plumbing for the per-table experiment runners: dataset + FD
  * loading, timing, and plain-text table formatting (the benches and the
  * spark-submit jobs print the same tables).
  */
object Experiments {

  /** A dataset prepared for the plaque test: the encoded instance and its
    * discovered FDs (the Metanome-substitute output).
    */
  final case class Prepared(name: String, inst: Instance, fds: Vector[FD])

  /** Max LHS size used for discovery, per dataset. Iris uses unary discovery
    * (the paper's iris FD set is tiny and all-class-RHS; with binary LHS our
    * mimic would add key-like FDs that the real data's value distribution
    * avoids — see DESIGN.md §3).
    */
  def maxLhsFor(name: String): Int = if (name == "iris") 1 else 2

  private val cache = scala.collection.mutable.Map.empty[String, Prepared]

  /** Load a mimic dataset and run FD discovery on it, once per JVM: the
    * result is cached by dataset name, whichever session asks.
    */
  def prepare(spark: SparkSession, name: String): Prepared = synchronized {
    cache.getOrElseUpdate(name, {
      val df = Datasets.byName(spark)(name)
      val (inst, fds) = FDDiscovery.discover(df, "id", maxLhsFor(name))
      Prepared(name, inst, fds)
    })
  }

  /** The satellites instance truncated to its first `n` rows (Table 1 and
    * Fig. 5 sweep over these). FDs discovered on the full 150 rows still hold
    * on every prefix. Throws unless `1 <= n <= 150`.
    */
  def satellitesPrefix(spark: SparkSession, n: Int): Prepared = {
    val full = prepare(spark, "satellites")
    require(1 <= n && n <= full.inst.nRows, s"satellites prefix of n = $n rows: n must lie in 1 to ${full.inst.nRows}, the row count")
    Prepared(s"satellites[$n]", full.inst.subInstance(0 until n, full.inst.attrs.indices), full.fds)
  }

  /** Milliseconds spent evaluating `body`. */
  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Fixed-width plain-text table (header + rows). */
  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.reverse.padTo(w, ' ').reverse }.mkString("  ")
    (fmt(header) +: "-" * (widths.sum + 2 * (header.size - 1)) +: rows.map(fmt)).mkString("\n")
  }
}
