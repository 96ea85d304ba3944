package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.Datasets
import repro.exp.Experiments
import repro.fdiscovery.FDDiscovery
import repro.perfbench.Op.miss

/** `exact`: the Table 1 cells that finish — `ExactEntropy.optimized` on
  * satellites[1..4], `ExactEntropy.naive` on satellites[1..2] — plus
  * `PlaqueTest.runExact` on full satellites and adult. No Spark runs in a
  * pass; the session only builds the instances during setup. The mimics are
  * deterministic, so the seed only seeds the scan probe of the traced run.
  * A pass needs no session, so its cold passes run in fresh JVMs.
  */
final class Exact extends Workload {
  import Exact._

  private var spark: SparkSession = _
  private var seed = 0L
  private var inputs = Map.empty[String, (Instance, Vector[FD])]
  private val reference = scala.collection.mutable.Map.empty[String, Map[Pos, Double]]

  def setup(spark: SparkSession, seed: Long): Unit = {
    this.spark = spark
    this.seed = seed
    val all = Datasets.byName(spark)
    inputs = Full.map(d => d -> FDDiscovery.discover(all(d), "id", Experiments.maxLhsFor(d))).toMap
  }

  override def coldState: Option[java.io.Serializable] = Some((inputs, reference.toMap))

  override def restore(state: AnyRef): Unit = {
    val (in, ref) = state.asInstanceOf[(Map[String, (Instance, Vector[FD])], Map[String, Map[Pos, Double]])]
    inputs = in
    reference ++= ref
  }

  private def satellites(n: Int): Instance = {
    val inst = inputs("satellites")._1
    Instance(inst.attrs, inst.rows.take(n))
  }

  private def satFds = inputs("satellites")._2

  /** `ExactEntropy.clauseMatrix` of an input, computed once per run. */
  private def agrees(key: String, inst: => Instance, fds: => Vector[FD], got: Map[Pos, Double]): Seq[String] = {
    val want = reference.getOrElseUpdate(key, ExactEntropy.clauseMatrix(inst, fds))
    val worst = want.map { case (p, e) => got.get(p).fold(Double.PositiveInfinity)(g => math.abs(g - e)) }.max
    miss(got.keySet == want.keySet && worst <= 1e-12, s"differs from clauseMatrix by $worst")
  }

  private def exactOp(label: String, n: Int)(run: => ExactEntropy.Result): Op[ExactEntropy.Result] =
    Op(s"$label.$n")(run) { r =>
      miss(!r.aborted, "aborted") ++ (if (r.aborted) Nil else agrees(s"satellites[$n]", satellites(n), satFds, r.entropies))
    }

  def pass(): Vector[Op[_]] =
    OptimizedRows.map(n => exactOp("optimized", n)(ExactEntropy.optimized(satellites(n), satFds, BudgetMs))) ++
      NaiveRows.map(n => exactOp("naive", n)(ExactEntropy.naive(satellites(n), satFds, BudgetMs))) ++
      Full.map { d =>
        val (inst, fds) = inputs(d)
        Op(s"clause.$d")(PlaqueTest.runExact(inst, fds)) { r =>
          val got = inst.positions.map(p => p -> r.entropy(p)).toMap
          agrees(d, inst, fds, got)
        }
      }

  /** Spans around the same calls as [[pass]]. `uniqueness` and `reduction`
    * are probes: the Prop. 3.2 and 3.3 steps `optimized` makes internally,
    * called once more on the same prefixes, outside the `optimized` spans.
    * The run then hosts the [[ScanProbe]] (seeded with the workload seed).
    */
  def traced(trace: Trace, tasks: TaskMetrics, passMs: Double, opMs: Map[String, Double]): Traced = {
    val cells = Vector.newBuilder[Seq[String]]
    for (n <- OptimizedRows) {
      trace.span("exact_optimized", s"$n")(ExactEntropy.optimized(satellites(n), satFds, BudgetMs))
      if (NaiveRows.contains(n)) trace.span("exact_naive", s"$n")(ExactEntropy.naive(satellites(n), satFds, BudgetMs))
      def ms(span: String) = f"${trace.ms(span, s"$n")}%.1f"
      cells += Seq(s"$n", ms("exact_optimized"), if (NaiveRows.contains(n)) ms("exact_naive") else "-")
    }
    for (d <- Full) {
      val (inst, fds) = inputs(d)
      trace.span("exact_clause", d)(PlaqueTest.runExact(inst, fds))
    }
    val onPath = Seq("exact_optimized", "exact_naive", "exact_clause").map(trace.ms).sum

    val closed = FDs.closure(satFds)
    var reducedMax = 0
    for (n <- OptimizedRows) {
      trace.span("uniqueness", s"$n")(Uniqueness.nonUniquePositions(satellites(n), closed))
      val red = trace.span("reduction", s"$n")(Reduction.reduce(satellites(n), closed))
      reducedMax = math.max(reducedMax, red.sub.nCells)
    }
    val subsets = Full.map { d =>
      val (inst, fds) = inputs(d)
      Clauses.forAllPositions(inst, FDs.closure(fds)).values.filter(_.nonEmpty)
        .map(cls => math.pow(2, cls.flatten.toSet.size)).sum
    }.sum

    val scan = new ScanProbe(spark, seed).traced(trace, tasks)
    val m = scan.metrics ++ Map(
      "exact_optimized_ms" -> trace.ms("exact_optimized"),
      "exact_naive_ms" -> trace.ms("exact_naive"),
      "exact_clause_ms.satellites" -> trace.ms("exact_clause", "satellites"),
      "exact_clause_ms.adult" -> trace.ms("exact_clause", "adult"),
      "uniqueness_ms" -> trace.ms("uniqueness"),
      "reduction_ms" -> trace.ms("reduction"),
      "reduction_cells_max" -> reducedMax.toDouble,
      "exact_subsets" -> subsets,
      "trace_overhead_ms" -> (onPath - passMs),
    )
    val table = Experiments.formatTable(Seq("#Rows", "Optimized [ms]", "Unoptimized [ms]"), cells.result())
    Traced(m, scan.checks, s"Table 1 cells run by this workload:\n$table\n${scan.report}")
  }
}

object Exact {
  val OptimizedRows: Vector[Int] = Vector(1, 2, 3, 4)
  val NaiveRows: Vector[Int] = Vector(1, 2)
  val Full: Vector[String] = Vector("satellites", "adult")
  val BudgetMs = 60000L
}
