package repro.scale

import org.scalatest.funsuite.AnyFunSuite

import repro.{Oracle, SparkSpec}
import repro.data.Datasets
import repro.fdiscovery.FDDiscovery

class WitnessStatsSpec extends AnyFunSuite with SparkSpec {

  // Small scale for correctness; the bench runs SF 0.1.
  private lazy val denorm = WitnessStats.lineitemDenorm(spark, sf = 0.002).cache()

  test("the join has the six scanned columns, one order per line item and o_region = o_custkey mod 25") {
    assert(denorm.columns.toSeq ==
      Seq("l_orderkey", "l_linenumber", "l_quantity", "o_custkey", "o_orderdate", "o_region"))
    // Order keys are unique, so 12,000 joined rows (all line items at SF 0.002) is one order each.
    val orders = WitnessStats.ordersWithRegion(spark, 0.002)
    assert(orders.select("o_orderkey").distinct().count() == orders.count())
    assert(denorm.count() == 12000L)
    assert(denorm.where("o_region <> o_custkey % 25").count() == 0L)
  }

  test("planted FDs hold on the denormalised join") {
    val prof = WitnessStats.profile(spark, denorm, WitnessStats.denormFds).collect()
    assert(prof.length == WitnessStats.denormFds.size)
    assert(prof.forall(_.getBoolean(1)), prof.mkString("; "))
  }

  test("a violated FD is reported as not holding") {
    val prof = WitnessStats
      .profile(spark, denorm, Seq(Seq("o_region") -> "o_custkey"))
      .collect()(0)
    assert(!prof.getBoolean(1))
  }

  test("group accounting is internally consistent") {
    val prof = WitnessStats.profile(spark, denorm, WitnessStats.denormFds).collect()
    for (r <- prof) {
      val (groups, dupGroups, nonUnique, pairs) =
        (r.getLong(2), r.getLong(3), r.getLong(4), r.getLong(5))
      assert(dupGroups <= groups)
      assert(nonUnique >= 2 * dupGroups)    // every dup group has ≥ 2 members
      assert(pairs >= nonUnique)            // g(g-1) ≥ g for g ≥ 2
    }
  }

  test("profile keeps the input order, a repeated FD and a trivial FD, each row as if profiled alone") {
    val fds = Seq(
      Seq("l_orderkey") -> "o_custkey",
      Seq("o_custkey") -> "o_region",
      Seq("l_orderkey") -> "o_custkey",
      Seq("l_orderkey", "o_region") -> "o_region",
      Seq("o_region") -> "o_custkey",
      Seq("l_orderkey") -> "o_region",
    )
    val prof = WitnessStats.profile(spark, denorm, fds).collect().toSeq
    assert(prof.map(_.getString(0)) == fds.map { case (l, r) => s"${l.mkString(", ")} -> $r" })
    for ((fd, row) <- fds.zip(prof))
      assert(row == WitnessStats.profile(spark, denorm, Seq(fd)).collect()(0), fd)
    assert(prof(3).getBoolean(1) && !prof(4).getBoolean(1))
  }

  test("on an empty frame an FD holds and every count is 0") {
    val empty = Datasets.satellites(spark).limit(0)
    for (lhs <- Seq(Seq("mean_radius"), Nil)) {
      assert(FDDiscovery.holdsSpark(empty, lhs, "planet"), lhs)
      val prof = WitnessStats.profile(spark, empty, Seq(lhs -> "planet")).collect()(0)
      assert(prof.getString(0) == (if (lhs.isEmpty) "∅" else "mean_radius") + " -> planet", prof)
      assert(prof.getBoolean(1) && (2 to 5).forall(prof.getLong(_) == 0L), prof)
    }
  }

  test("profile matches the DuckDB oracle for l_orderkey -> o_custkey") {
    val prof = WitnessStats
      .profile(spark, denorm, Seq(Seq("l_orderkey") -> "o_custkey"))
      .selectExpr(
        "cast(n_groups as string) as n_groups",
        "cast(n_dup_groups as string) as n_dup_groups",
        "cast(n_nonunique_cells as string) as n_nonunique_cells",
        "cast(n_witness_pairs as string) as n_witness_pairs",
      )
    Oracle.assertEquivalent(
      prof,
      """SELECT CAST(COUNT(*) AS VARCHAR) AS n_groups,
        |       CAST(SUM(CASE WHEN g > 1 THEN 1 ELSE 0 END) AS VARCHAR) AS n_dup_groups,
        |       CAST(SUM(CASE WHEN g > 1 THEN g ELSE 0 END) AS VARCHAR) AS n_nonunique_cells,
        |       CAST(SUM(g * (g - 1)) AS VARCHAR) AS n_witness_pairs
        |FROM (SELECT COUNT(*) AS g FROM li GROUP BY l_orderkey)""".stripMargin,
      // Project to the key column: the oracle only needs it, and Spark 4's
      // row decoder chokes on collecting DateType out of this cached join.
      "li" -> denorm.selectExpr("cast(l_orderkey as string) as l_orderkey"),
    )
  }

  test("ordersWithRegion plants o_custkey -> o_region") {
    val df = WitnessStats.ordersWithRegion(spark, 0.002)
    assert(repro.fdiscovery.FDDiscovery.holdsSpark(df, Seq("o_custkey"), "o_region"))
  }

  test("denormalisation repeats order attributes per line item") {
    import org.apache.spark.sql.functions._
    val dupOrders = denorm
      .groupBy("l_orderkey")
      .agg(count(lit(1)).as("n"), countDistinct(col("o_orderdate")).as("d"))
      .where("n > 1")
    assert(dupOrders.count() > 0)
    assert(dupOrders.where("d > 1").count() == 0)
  }
}
