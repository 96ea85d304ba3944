package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.data.Datasets
import repro.exp.{Experiments, Fig3Exp}
import repro.fdiscovery.FDDiscovery
import repro.perfbench.Op.miss

/** `mimics-mc`: for each of the five mimics, FD discovery on the cached
  * DataFrame, then `PlaqueTest.run` at the paper's Fig. 3 setting of 100 000
  * MC iterations per non-unique cell. The seed is the MC seed; the mimics
  * themselves are deterministic.
  */
final class MimicsMc extends Workload {
  import MimicsMc._

  private var spark: SparkSession = _
  private var seed = 0L
  private var frames = Vector.empty[(String, DataFrame)]
  private val lastPlaque = scala.collection.mutable.Map.empty[String, PlaqueTest.Result]
  private val exact = scala.collection.mutable.Map.empty[String, Map[Pos, Double]]

  def setup(spark: SparkSession, seed: Long): Unit = {
    this.spark = spark
    this.seed = seed
    val all = Datasets.byName(spark)
    frames = Fig3Exp.DatasetNames.map(d => d -> all(d).cache()).toVector
    frames.foreach(_._2.count())
  }

  def pass(): Vector[Op[_]] = frames.flatMap { case (d, df) =>
    val disc = Op(s"discover.$d")(FDDiscovery.discover(df, "id", Experiments.maxLhsFor(d))) {
      case (inst, fds) => checkFds(d, inst, fds)
    }
    val plaque = disc.out.toOption.map { case (inst, fds) =>
      Op(s"plaque.$d")(PlaqueTest.run(spark, inst, fds, Iterations, seed)) { res =>
        lastPlaque(d) = res
        rq1(d, res) ++ accuracy(d, fds, res)
      }
    }
    disc +: plaque.toVector
  }

  /** The traced pass runs `FDDiscovery.discover` and `PlaqueTest.run` as the
    * public calls they are made of, with a span around each, and adds the
    * local MC sampler on the same clause sets as an off-path probe.
    */
  def traced(trace: Trace, tasks: TaskMetrics, passMs: Double, opMs: Map[String, Double]): Traced = {
    val m = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val checks = Vector.newBuilder[Op[_]]
    val rows = Vector.newBuilder[Seq[String]]
    for ((d, df) <- frames) {
      val inst = trace.span("encode", d)(Instance.fromDataFrame(df, "id"))
      val fds = trace.span("discovery", d)(FDDiscovery.discoverLocal(inst, Experiments.maxLhsFor(d)))
      val (closed, clauses, est, mcTasks) = trace.span("plaque", d) {
        val closed = trace.span("closure", d)(FDs.closure(fds))
        val clauses = trace.span("clauses", d)(Clauses.forAllPositions(inst, closed).filter(_._2.nonEmpty))
        val (est, mcTasks) = tasks.measure(spark.sparkContext) {
          trace.span("mc_spark", d) {
            MonteCarlo.estimateSpark(spark, clauses.view.mapValues(v => v: Seq[Set[Pos]]).toMap, Iterations, seed)
          }
        }
        (closed, clauses, est, mcTasks)
      }
      trace.span("mc_local", d) {
        clauses.foreach { case (p, cls) =>
          MonteCarlo.estimate(MonteCarlo.mask(cls), Iterations, seed ^ (p.row.toLong << 20) ^ p.col)
        }
      }
      checks += Op.check(s"trace_replica.$d") {
        val res = lastPlaque(d)
        miss(est.keySet == res.nonUnique && est.forall { case (p, e) => res.entropy(p) == e },
          "traced decomposition disagrees with PlaqueTest.run")
      }

      val maxClauses = clauses.values.map(_.size).maxOption.getOrElse(0)
      val maxUnion = clauses.values.map(_.flatten.toSet.size).maxOption.getOrElse(0)
      m(s"encode_ms.$d") = trace.ms("encode", d)
      m(s"discovery_ms.$d") = trace.ms("discovery", d)
      m(s"closure_ms.$d") = trace.ms("closure", d)
      m(s"closure_fds_in.$d") = fds.size
      m(s"closure_fds_out.$d") = closed.size
      m(s"clauses_ms.$d") = trace.ms("clauses", d)
      m(s"clauses_cells.$d") = clauses.size
      m(s"clauses_max.$d") = maxClauses
      m(s"clauses_max_union.$d") = maxUnion
      m(s"mc_spark_ms.$d") = trace.ms("mc_spark", d)
      m(s"mc_spark_tasks.$d") = mcTasks.tasks.toDouble
      m(s"mc_local_ms.$d") = trace.ms("mc_local", d)
      m(s"mc_samples.$d") = (clauses.size * Iterations).toDouble
      m(s"plaque_unaccounted_ms.$d") =
        opMs(s"plaque.$d") - Seq("closure", "clauses", "mc_spark").map(trace.ms(_, d)).sum
      rows += Seq(d, fds.size.toString, clauses.size.toString, s"$maxClauses / $maxUnion") ++
        Seq("closure", "clauses", "mc_local", "mc_spark").map(s => f"${trace.ms(s, d)}%.1f")
    }
    m("trace_overhead_ms") = Seq("encode", "discovery", "plaque").map(trace.ms).sum - passMs
    val report = Experiments.formatTable(
      Seq("dataset", "FDs", "non-unique cells", "max clauses / union", "closure", "clauses", "MC local", "MC Spark"),
      rows.result())
    Traced(m.toMap, checks.result(), s"Baseline columns (ms, $Iterations MC iterations per cell):\n$report")
  }

  private def checkFds(d: String, inst: Instance, fds: Vector[FD]): Seq[String] =
    miss(fds.nonEmpty, "no FDs discovered") ++
      miss(fds.forall(f => FDDiscovery.holdsLocal(inst, f.lhs, f.rhs)), "a discovered FD does not hold") ++
      miss(d != "iris" || fds.forall(_.rhs == inst.attrIndex("class")), "iris FD without class on the RHS")

  /** The Fig. 3 / RQ1 findings, as `Fig3PlaqueBench` asserts them. */
  private def rq1(d: String, r: PlaqueTest.Result): Seq[String] = {
    def col(a: String) = r.inst.attrIndex(a)
    def below(a: String) = r.entropies.count(_(col(a)) < 1.0)
    val cols = r.plaqueColumns
    val colored = r.entropies.iterator.flatten.count(_ < 1.0).toDouble / r.cells
    val selective = miss(d == "echocardiogram" || colored < 0.35, f"$colored%.3f of cells colored")
    selective ++ (d match {
      case "satellites" =>
        val planet = col("planet")
        val minRow = r.entropies.indices.minBy(j => r.entropies(j)(planet))
        miss(cols.toSet == Set("planet", "notes"), s"plaque columns $cols") ++
          miss(below("planet") > 100 && below("notes") <= 6, s"planet=${below("planet")} notes=${below("notes")}") ++
          miss((6 to 13).contains(minRow), s"min entropy at row $minRow") ++
          miss(r.minEntropy > 0.5 && r.minEntropy < 0.65, s"min entropy ${r.minEntropy}")
      case "adult" =>
        val (e, n) = (col("education"), col("education_num"))
        miss(cols.toSet == Set("education", "education_num"), s"plaque columns $cols") ++
          miss(r.entropies.forall(row => math.abs(row(e) - row(n)) < 0.03), "education and education_num differ")
      case "echocardiogram" =>
        miss(cols.size == 11, s"${cols.size} plaque columns") ++
          miss(r.zeroColumns().contains("name") && r.entropies.forall(_(col("name")) < 0.05), "name column not ~0")
      case "ncvoter" =>
        miss(cols.size == 15, s"${cols.size} plaque columns") ++
          miss(r.zeroColumns().contains("state"), "state column not ~0")
      case "iris" =>
        miss(cols == Vector("class"), s"plaque columns $cols")
    })
  }

  /** On satellites and adult every MC cell is within the Thm. 3.6 accuracy
    * of the exact clause-based value.
    */
  private def accuracy(d: String, fds: Vector[FD], r: PlaqueTest.Result): Seq[String] =
    if (!ExactChecked(d)) Nil
    else {
      val ex = exact.getOrElseUpdate(d, ExactEntropy.clauseMatrix(r.inst, fds))
      val worst = ex.map { case (p, e) => math.abs(r.entropy(p) - e) }.max
      miss(worst <= Eps, f"max |MC - exact| = $worst%.4f > $Eps%.4f")
    }
}

object MimicsMc {
  val Iterations = 100000L
  val ExactChecked = Set("satellites", "adult")
  val Eps: Double = MonteCarlo.accuracy(Iterations, 1e-6)
}
