package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.PlaqueTest
import repro.viz.Heatmap

/** Figure 3 / RQ1: plaque tests on the five (mimicked) real-world datasets.
  *
  * The paper computes the entropies with 100 000 MC iterations (accuracy
  * ≈ 0.01 at 99 % confidence); the default here is 20 000 (accuracy ≈ 0.03 at
  * 99.9 %), which keeps a full 5-dataset sweep in CI time — iteration count
  * is a parameter, and Fig. 6 quantifies its (negligible) visual impact.
  */
object Fig3Exp {

  final case class Summary(
      dataset: String,
      rows: Int,
      cols: Int,
      nFds: Int,
      minEntropy: Double,
      cellsBelowOne: Int,
      plaqueColumns: Vector[String],
      zeroColumns: Vector[String],
      result: PlaqueTest.Result,
  )

  val DatasetNames: Seq[String] = Seq("satellites", "adult", "echocardiogram", "ncvoter", "iris")

  def runOne(spark: SparkSession, name: String, iterations: Long): Summary = {
    val prep = Experiments.prepare(spark, name)
    val res = PlaqueTest.run(spark, prep.inst, prep.fds, iterations)
    Summary(
      name,
      prep.inst.nRows,
      prep.inst.arity,
      prep.fds.size,
      res.minEntropy,
      res.cells - (res.fractionOnes * res.cells).round.toInt,
      res.plaqueColumns,
      res.zeroColumns(),
      res,
    )
  }

  def run(spark: SparkSession, iterations: Long = 20000L): Seq[Summary] =
    DatasetNames.map(runOne(spark, _, iterations))

  def format(ss: Seq[Summary]): String =
    Experiments.formatTable(
      Seq("dataset", "rows", "cols", "#FDs", "non-unique / classes", "min entropy", "cells<1", "plaque cols", "zero cols"),
      ss.map(s => Seq(
        s.dataset, s.rows.toString, s.cols.toString, s.nFds.toString,
        s"${s.result.nonUnique.size} / ${s.result.classes}",
        f"${s.minEntropy}%.2f", s.cellsBelowOne.toString,
        s"${s.plaqueColumns.size}: ${s.plaqueColumns.take(4).mkString(",")}${if (s.plaqueColumns.size > 4) ",…" else ""}",
        s.zeroColumns.mkString(","),
      )),
    )

  def heatmaps(ss: Seq[Summary]): String =
    ss.map(s => s"== ${s.dataset} ==\n${Heatmap.render(s.result)}").mkString("\n\n")
}
