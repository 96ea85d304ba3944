package repro.core

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions.monotonically_increasing_id
import org.scalatest.funsuite.AnyFunSuite

import repro.{Oracle, SparkSpec}
import repro.data.Datasets
import repro.fdiscovery.FDDiscovery
import repro.scale.WitnessStats

class UniquenessSpec extends AnyFunSuite with SparkSpec with AdaptiveSparkPlanHelper {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds = Vector(FD(Set(0), 2))

  test("Example 3.4: exactly (0,C) and (2,C) are non-unique") {
    assert(Uniqueness.nonUniquePositions(ex34, fds) == Set(Pos(0, 2), Pos(2, 2)))
  }

  test("Example 3.4: non-unique rows are 0 and 2") {
    assert(Reduction.reduce(ex34, fds).rowMap == Vector(0, 2))
  }

  test("attributes off every FD RHS are always unique (Prop. 3.2 note)") {
    val nu = Uniqueness.nonUniquePositions(ex34, fds)
    assert(!nu.exists(p => p.col != 2))
  }

  test("Prop. 3.2: INF = 1 iff unique, on Example 3.4") {
    val closed = FDs.closure(fds)
    val nu = Uniqueness.nonUniquePositions(ex34, closed)
    for (p <- ex34.positions) {
      val inf = ExactEntropy.compute(ex34, closed, p)
      assert((inf == 1.0) == !nu.contains(p), s"at $p inf=$inf")
    }
  }

  // Prop. 3.2 on randomized repaired instances.
  for (seed <- 300 until 330) {
    test(s"Prop. 3.2: INF = 1 iff unique (random instance, seed=$seed)") {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val nu = Uniqueness.nonUniquePositions(inst, closed)
      for (p <- inst.positions) {
        val inf = TestGen.referenceViaClauses(TestGen.referenceClauses(inst, closed, p))
        assert((inf == 1.0) == !nu.contains(p), s"at $p inf=$inf inst=$inst fds=$fds")
      }
    }
  }

  test("non-uniqueness ≡ existence of witness clauses") {
    val inputs = (400 until 420).map(TestGen.instanceWithFds(_)) ++ (0 until 400).map(TestGen.instanceWithWideFds(_))
    for (((inst, raw), i) <- inputs.zipWithIndex; fds <- Seq(raw, FDs.closure(raw))) {
      val nu = Uniqueness.nonUniquePositions(inst, fds)
      val withClauses = inst.positions.filter(TestGen.referenceClauses(inst, fds, _).nonEmpty).toSet
      assert(nu == withClauses, s"input $i fds=$fds inst=$inst")
      assert(nu == Clauses.forAllPositions(inst, fds).keySet, s"input $i fds=$fds inst=$inst")
    }
  }

  test("empty-LHS FD makes every cell of its RHS column non-unique (n>1)") {
    val inst = Instance(Vector("A", "B"), Vector(Vector(1, 5), Vector(2, 5), Vector(3, 5)))
    val nu = Uniqueness.nonUniquePositions(inst, Vector(FD(Set.empty[Int], 1)))
    assert(nu == Set(Pos(0, 1), Pos(1, 1), Pos(2, 1)))
  }

  // --- distributed variant --------------------------------------------------

  private lazy val satDf = Datasets.satellites(spark).cache()
  private val satFds = Seq(Seq("mean_radius") -> "planet", Seq("discovered_by") -> "notes")

  test("nonUniqueDF agrees with the local computation on satellites") {
    val inst = Instance.fromDataFrame(satDf, "id")
    val localNu = Uniqueness
      .nonUniquePositions(inst, FDs.byName(inst.attrs, satFds))
      .map(p => (p.row.toLong, inst.attrs(p.col)))
    val sparkNu = Uniqueness
      .nonUniqueDF(satDf, satFds, "id")
      .collect()
      .map(r => (r.getLong(0), r.getString(1)))
      .toSet
    assert(sparkNu == localNu)
  }

  test("nonUniqueDF equals the local computation on trivial and mixed FD lists") {
    val inst = Instance.fromDataFrame(satDf, "id")
    def local(fds: Seq[(Seq[String], String)]) = Uniqueness
      .nonUniquePositions(inst, FDs.byName(inst.attrs, fds))
      .map(p => (p.row.toLong, inst.attrs(p.col)))
    def dist(fds: Seq[(Seq[String], String)]) = Uniqueness
      .nonUniqueDF(satDf, fds, "id")
      .collect()
      .map(r => (r.getLong(0), r.getString(1)))
      .toSet
    val trivial = Seq(Seq("planet") -> "planet", Seq("name", "notes") -> "notes")
    for (fds <- Seq(Nil, trivial)) {
      assert(local(fds).isEmpty && dist(fds).isEmpty, fds)
      assert(Uniqueness.nonUniqueCountsDF(satDf, fds, "id").count() == 0, fds)
    }
    val mixed = trivial ++ satFds
    assert(local(mixed).nonEmpty)
    assert(dist(mixed) == local(mixed))
  }

  test("nonUniqueDF matches the DuckDB oracle on satellites") {
    val df = Uniqueness.nonUniqueDF(satDf, satFds, "id")
    Oracle.assertEquivalent(
      df.selectExpr("cast(id as string) as id", "attr"),
      """SELECT id, attr FROM (
        |  SELECT id, 'planet' AS attr, COUNT(*) OVER (PARTITION BY mean_radius) AS c FROM sat
        |  UNION ALL
        |  SELECT id, 'notes' AS attr, COUNT(*) OVER (PARTITION BY discovered_by) AS c FROM sat
        |) WHERE c > 1""".stripMargin,
      "sat" -> satDf,
    )
  }

  test("nonUniqueCountsDF matches the DuckDB oracle on satellites") {
    val df = Uniqueness.nonUniqueCountsDF(satDf, satFds, "id")
    Oracle.assertEquivalent(
      df.selectExpr("attr", "cast(n_cells as string) as n_cells"),
      """SELECT attr, CAST(COUNT(*) AS VARCHAR) AS n_cells FROM (
        |  SELECT id, 'planet' AS attr, COUNT(*) OVER (PARTITION BY mean_radius) AS c FROM sat
        |  UNION ALL
        |  SELECT id, 'notes' AS attr, COUNT(*) OVER (PARTITION BY discovered_by) AS c FROM sat
        |) WHERE c > 1 GROUP BY attr""".stripMargin,
      "sat" -> satDf,
    )
  }

  test("nonUniqueDF equals the local computation on an empty-LHS FD (echocardiogram ∅ → name)") {
    val df = Datasets.echocardiogram(spark)
    val inst = Instance.fromDataFrame(df, "id")
    val fds = Seq(Seq.empty[String] -> "name")
    val local = Uniqueness
      .nonUniquePositions(inst, FDs.byName(inst.attrs, fds))
      .map(p => (p.row.toLong, inst.attrs(p.col)))
    val nonUnique = Uniqueness.nonUniqueDF(df, fds, "id")
    val dist = nonUnique.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(local.size == 132)
    assert(dist == local)
    Oracle.assertEquivalent(
      nonUnique.selectExpr("cast(id as string) as id", "attr"),
      "SELECT id, 'name' AS attr FROM (SELECT id, COUNT(*) OVER () AS c FROM echo) WHERE c > 1",
      "echo" -> df.select("id", "name"),
    )
  }

  test("nonUniqueDF decides ∅ → B without a window over one partition") {
    val df = Datasets.echocardiogram(spark)
    val nonUnique = Uniqueness.nonUniqueDF(df, Seq(Seq.empty[String] -> "name", Seq("group") -> "name"), "id")
    nonUnique.collect()
    val windows = collect(nonUnique.queryExecution.executedPlan) { case w: WindowExec => w.partitionSpec }
    assert(windows.size == 1 && windows.forall(_.nonEmpty), windows)
  }

  test("nonUniqueDF: ∅ → B leaves a one-row table unique") {
    val one = Datasets.echocardiogram(spark).limit(1)
    assert(Uniqueness.nonUniqueDF(one, Seq(Seq.empty[String] -> "name"), "id").count() == 0)
    assert(Uniqueness.nonUniqueDF(one.limit(0), Seq(Seq.empty[String] -> "name"), "id").count() == 0)
  }

  // lineitem ⋈ orders: three FDs share the LHS l_orderkey, and o_region is
  // reached from two LHSs. Cached, so the row ids stay fixed across jobs.
  private lazy val denorm =
    WitnessStats.lineitemDenorm(spark, 0.002).withColumn("row_id", monotonically_increasing_id()).cache()

  test("nonUniqueDF runs one window per distinct LHS and no aggregate (denormFds)") {
    val nonUnique = Uniqueness.nonUniqueDF(denorm, WitnessStats.denormFds, "row_id")
    nonUnique.collect()
    val plan = nonUnique.queryExecution.executedPlan
    val windows = collect(plan) { case w: WindowExec => w }
    val aggregates = collect(plan) { case a: HashAggregateExec => a }
    assert(windows.size == 2 && aggregates.isEmpty, plan)
  }

  test("nonUniqueDF matches DuckDB's per-FD window query on lineitem ⋈ orders") {
    val perFd = WitnessStats.denormFds.map { case (lhs, rhs) =>
      s"SELECT row_id, '$rhs' AS attr FROM " +
        s"(SELECT row_id, count(*) OVER (PARTITION BY ${lhs.mkString(", ")}) AS g FROM t) WHERE g > 1"
    }
    Oracle.assertEquivalent(
      Uniqueness.nonUniqueDF(denorm, WitnessStats.denormFds, "row_id")
        .selectExpr("cast(row_id as string) as row_id", "attr"),
      s"SELECT DISTINCT row_id, attr FROM (${perFd.mkString(" UNION ALL ")})",
      "t" -> denorm.selectExpr("cast(row_id as string) as row_id", "l_orderkey", "o_custkey"),
    )
  }

  test("fdHolds is true for the planted satellite FDs") {
    assert(FDDiscovery.holdsSpark(satDf, Seq("mean_radius"), "planet"))
    assert(FDDiscovery.holdsSpark(satDf, Seq("discovered_by"), "notes"))
  }

  test("fdHolds is false for a violated FD") {
    assert(!FDDiscovery.holdsSpark(satDf, Seq("planet"), "mean_radius"))
    assert(!FDDiscovery.holdsSpark(satDf, Seq("notes"), "discovered_by"))
  }
}
