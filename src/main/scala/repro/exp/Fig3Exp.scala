package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.PlaqueTest
import repro.viz.Heatmap

/** Figure 3 / RQ1: plaque tests on the five (mimicked) real-world datasets,
  * by default at the paper's 100 000 MC iterations (accuracy ≈ 0.01 at 99 %
  * confidence).
  */
object Fig3Exp {

  /** One dataset's plaque test; `nFds` counts the discovered (input) FDs. */
  final case class Summary(dataset: String, nFds: Int, result: PlaqueTest.Result)

  val DatasetNames: Seq[String] = Seq("satellites", "adult", "echocardiogram", "ncvoter", "iris")

  private val Iterations = 100000L

  def runOne(spark: SparkSession, name: String, iterations: Long = Iterations): Summary = {
    val prep = Experiments.prepare(spark, name)
    Summary(name, prep.fds.size, PlaqueTest.run(spark, prep.inst, prep.fds, iterations))
  }

  def run(spark: SparkSession, iterations: Long = Iterations): Seq[Summary] =
    DatasetNames.map(runOne(spark, _, iterations))

  def format(ss: Seq[Summary]): String =
    Experiments.formatTable(
      Seq("dataset", "rows", "cols", "#FDs", "non-unique / classes", "min entropy", "cells<1", "plaque cols", "zero cols"),
      ss.map { case Summary(dataset, nFds, r) =>
        val plaque = r.plaqueColumns
        Seq(
          dataset, r.inst.nRows.toString, r.inst.arity.toString, nFds.toString,
          s"${r.nonUnique.size} / ${r.classes}",
          f"${r.minEntropy}%.2f", r.cellsBelowOne.toString,
          s"${plaque.size}: ${plaque.take(4).mkString(",")}${if (plaque.size > 4) ",…" else ""}",
          r.zeroColumns().mkString(","),
        )
      },
    )

  def heatmaps(ss: Seq[Summary]): String =
    ss.map(s => s"== ${s.dataset} ==\n${Heatmap.render(s.result)}").mkString("\n\n")
}
