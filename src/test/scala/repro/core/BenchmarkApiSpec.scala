package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.fdiscovery.FDDiscovery

/** Compile guard for the benchmark harness (`perfbench/`): every public
  * signature it calls, with the argument and result types it relies on, so
  * a change that breaks the harness fails `Test/compile` first. Each call also
  * runs once on Example 3.4.
  */
class BenchmarkApiSpec extends AnyFunSuite with SparkSpec {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds: Vector[FD] = Vector(FD(Set(0), 2))

  private def ex34Df: DataFrame = {
    import spark.implicits._
    ex34.rows.zipWithIndex.map { case (r, j) => (j.toLong, r(0), r(1), r(2), r(3)) }.toDF("id", "A", "B", "C", "D")
  }

  test("mimics-mc: encode, discovery, closure, clauses and the MC samplers") {
    val df = ex34Df
    val inst: Instance = Instance.fromDataFrame(df, "id")
    val (discInst, discovered): (Instance, Vector[FD]) = FDDiscovery.discover(df, "id", 2)
    val local: Vector[FD] = FDDiscovery.discoverLocal(inst, 2)
    assert(discInst == inst && local == discovered)
    assert(fds.forall(f => FDDiscovery.holdsLocal(inst, f.lhs, f.rhs): Boolean))
    val closed: Vector[FD] = FDs.closure(fds)
    val clauses: Map[Pos, Vector[Set[Pos]]] = Clauses.forAllPositions(inst, closed).filter(_._2.nonEmpty)
    val est: Map[Pos, Double] =
      MonteCarlo.estimateSpark(spark, clauses.view.mapValues(v => v: Seq[Set[Pos]]).toMap, 1000L, 7L)
    val res: PlaqueTest.Result = PlaqueTest.run(spark, inst, fds, 1000L, 7L)
    assert(est.keySet == res.nonUnique && est.forall { case (p, e) => res.entropy(p) == e })
    for ((p, cls) <- clauses) {
      val e: Double = MonteCarlo.estimate(MonteCarlo.mask(cls), 1000L, 7L ^ (p.row.toLong << 20) ^ p.col)
      assert(e >= 0.0 && e <= 1.0)
    }
    val eps: Double = MonteCarlo.accuracy(1000L, 1e-6)
    assert(eps > 0.0)
  }

  test("exact: Table 1, runExact, clauseMatrix, uniqueness and the reduction") {
    val naive: ExactEntropy.Result = ExactEntropy.naive(ex34, fds, 60000L)
    val optimized: ExactEntropy.Result = ExactEntropy.optimized(ex34, fds, 60000L)
    val matrix: Map[Pos, Double] = ExactEntropy.clauseMatrix(ex34, fds)
    val res: PlaqueTest.Result = PlaqueTest.runExact(ex34, fds)
    assert(!naive.aborted && naive.entropies == matrix && optimized.entropies == matrix)
    assert(ex34.positions.forall(p => res.entropy(p) == matrix(p)))
    val closed = FDs.closure(fds)
    val nonUnique: Set[Pos] = Uniqueness.nonUniquePositions(ex34, closed)
    val sub: Instance = Reduction.reduce(ex34, closed).sub
    assert(nonUnique == res.nonUnique && sub.nCells == 4)
  }

  test("scan probe: Spark FD checks and the non-unique counts") {
    val df = ex34Df
    val holds: Boolean = FDDiscovery.holdsSpark(df, Seq("A"), "C")
    val counts: DataFrame = Uniqueness.nonUniqueCountsDF(df, Seq(Seq("A") -> "C"), "id")
    val rows: Array[Row] = counts.collect()
    assert(holds && rows.map(r => r.getString(0) -> r.getLong(1)).toMap == Map("C" -> 2L))
  }
}
