package jobs

import org.apache.spark.sql.SparkSession

import repro.exp._
import repro.viz.Heatmap

/** Shared SparkSession bootstrap for the spark-submit entrypoints. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Table 1: exact-entropy runtimes, optimized vs unoptimized.
  * Args: [maxRows] [budgetMs]
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table1")
    val rows = args match {
      case Array(maxRows, budget, _*) => Table1Exp.run(spark, maxRows.toInt, budget.toLong)
      case Array(maxRows) => Table1Exp.run(spark, maxRows.toInt)
      case _ => Table1Exp.run(spark)
    }
    println(Table1Exp.format(rows))
    spark.stop()
  }
}

/** Figure 2: required Monte-Carlo iterations per (accuracy, confidence). */
object Fig2Job {
  def main(args: Array[String]): Unit = {
    println(Fig2Exp.format(Fig2Exp.run()))
  }
}

/** Figure 3 / RQ1: plaque tests over the five datasets.
  * Args: [iterations] [--heatmaps]
  */
object PlaqueJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("plaque")
    val ss = args.headOption.filterNot(_.startsWith("--")).fold(Fig3Exp.run(spark))(i => Fig3Exp.run(spark, i.toLong))
    println(Fig3Exp.format(ss))
    if (args.contains("--heatmaps")) println("\n" + Fig3Exp.heatmaps(ss))
    spark.stop()
  }
}

/** Figure 4: entropy histogram of the satellites dataset. Args: [iterations] */
object Fig4Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig4")
    val h = args.headOption.fold(Fig4Exp.run(spark))(i => Fig4Exp.run(spark, i.toLong))
    println(Fig4Exp.format(h))
    spark.stop()
  }
}

/** Figure 5: MC runtime grid (rows × iterations) on satellites. */
object Fig5Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig5")
    println(Fig5Exp.format(Fig5Exp.run(spark)))
    spark.stop()
  }
}

/** Figure 6: MC accuracy, low vs high iteration count, on satellites.
  * Args: [lowIters] [highIters]
  */
object Fig6Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig6")
    val c = args match {
      case Array(lo, hi, _*) => Fig6Exp.run(spark, lo.toLong, hi.toLong)
      case Array(lo) => Fig6Exp.run(spark, lo.toLong)
      case _ => Fig6Exp.run(spark)
    }
    println(Fig6Exp.format(c))
    spark.stop()
  }
}

/** Distributed redundancy scan at scale. Args: [sf] */
object ScaleJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("scale")
    println(ScaleExp.format(ScaleExp.run(spark, args.headOption.map(_.toDouble).getOrElse(0.1))))
    spark.stop()
  }
}

/** Render one dataset's plaque heat map. Args: dataset [iterations] */
object HeatmapJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("heatmap")
    val name = args.headOption.getOrElse("satellites")
    val s = args.lift(1).fold(Fig3Exp.runOne(spark, name))(i => Fig3Exp.runOne(spark, name, i.toLong))
    println(Fig3Exp.format(Seq(s)))
    println(Heatmap.render(s.result))
    spark.stop()
  }
}
