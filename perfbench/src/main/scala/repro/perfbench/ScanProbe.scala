package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.monotonically_increasing_id

import repro.Oracle
import repro.core.Uniqueness
import repro.exp.Experiments
import repro.fdiscovery.FDDiscovery
import repro.perfbench.Op.miss
import repro.scale.WitnessStats

/** The Spark shuffle/aggregate scans over lineitem ⋈ orders at SF 0.1 (600k
  * rows plus a row id): `FDDiscovery.holdsSpark` for the four planted FDs,
  * `Uniqueness.nonUniqueCountsDF` and `WitnessStats.profile`. The seed is the
  * `SynthData` seed of the line items.
  *
  * This is a traced-run probe, not a workload of its own: see README.md for
  * why. It builds and caches its input, makes one untimed warm-up run of
  * the three ops, then one traced run, and checks the counts.
  */
final class ScanProbe(spark: SparkSession, seed: Long) {
  import ScanProbe._

  private def denorm(sf: Double): DataFrame =
    WitnessStats.lineitemDenorm(spark, sf, seed).withColumn(Id, monotonically_increasing_id())

  private def holds(df: DataFrame): Vector[Boolean] =
    Fds.map { case (lhs, rhs) => FDDiscovery.holdsSpark(df, lhs, rhs) }.toVector

  private def nonUnique(df: DataFrame): Map[String, Long] =
    Uniqueness.nonUniqueCountsDF(df, Fds, Id).collect().map(r => r.getString(0) -> r.getLong(1)).toMap

  /** `fd -> (holds, n_groups, n_dup_groups, n_nonunique_cells, n_witness_pairs)` */
  private def profile(df: DataFrame): Map[String, Seq[Any]] =
    WitnessStats.profile(spark, df, Fds).collect().map(r => r.getString(0) -> r.toSeq.tail).toMap

  def traced(trace: Trace, tasks: TaskMetrics): Traced = {
    val sc = spark.sparkContext
    val cores = sc.defaultParallelism
    val df = denorm(Sf).cache()
    df.count()
    val warmUp = (holds(df), nonUnique(df), profile(df))

    val m = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val rows = Vector.newBuilder[Seq[String]]
    def op[A](name: String)(body: => A): A = {
      val (a, t) = tasks.measure(sc)(trace.span("scan", name)(body))
      val ms = trace.ms("scan", name)
      val busy = t.executorRunMs / (ms * cores)
      m ++= Seq(
        s"scan_ms.$name" -> ms,
        s"shuffle_read_bytes.$name" -> t.shuffleReadBytes.toDouble,
        s"shuffle_write_bytes.$name" -> t.shuffleWriteBytes.toDouble,
        s"tasks.$name" -> t.tasks.toDouble,
        s"executor_run_ms.$name" -> t.executorRunMs.toDouble,
        s"core_busy.$name" -> busy,
      )
      rows += Seq(name, f"$ms%.1f", s"${t.tasks}", s"${t.shuffleReadBytes}", s"${t.shuffleWriteBytes}", f"$busy%.2f")
      a
    }
    val got = (op("holds")(holds(df)), op("nonunique")(nonUnique(df)), op("profile")(profile(df)))
    df.unpersist()

    val (h, n, p) = got
    def cells(fd: String) = p(fd)(3).asInstanceOf[Long]
    val checks = Vector(
      Op.check("scan.sf0.1") {
        miss(h.forall(identity), s"planted FDs hold: $h") ++
          miss(got == warmUp, "traced run differs from the warm-up run") ++
          miss(n("o_custkey") == cells("l_orderkey -> o_custkey"), "o_custkey counts disagree") ++
          miss(n("o_orderdate") == cells("l_orderkey -> o_orderdate"), "o_orderdate counts disagree") ++
          miss(n("o_region") >= math.max(cells("l_orderkey -> o_region"), cells("o_custkey -> o_region")),
            "o_region counts disagree") ++
          miss(p.values.forall(_(4).asInstanceOf[Long] > 0), "an FD without witness pairs")
      },
      oracleCheck(),
    )
    val table = Experiments.formatTable(
      Seq("op", "ms", "tasks", "shuffle read B", "shuffle write B", "core busy"), rows.result())
    Traced(m.toMap, checks, s"Scan probe, SF $Sf on $cores cores:\n$table")
  }

  /** The same scans agree with DuckDB on the same generator at SF 0.01. */
  private def oracleCheck(): Op[Unit] = {
    val small = denorm(OracleSf).select(Id, "l_orderkey", "o_custkey", "o_orderdate", "o_region").cache()
    val op = Op.check("scan.duckdb_sf0.01") {
      Oracle.assertEquivalent(Uniqueness.nonUniqueCountsDF(small, Fds, Id), NonUniqueSql, "t" -> small)
      Oracle.assertEquivalent(WitnessStats.profile(spark, small, Fds), ProfileSql, "t" -> small)
      miss(holds(small).forall(identity), "planted FDs do not hold at SF 0.01")
    }
    small.unpersist()
    op
  }
}

object ScanProbe {
  val Sf = 0.1
  val OracleSf = 0.01
  val Id = "row_id"
  val Fds: Seq[(Seq[String], String)] = WitnessStats.denormFds

  private val NonUniqueSql = {
    val perFd = Fds.map { case (lhs, rhs) =>
      s"SELECT $Id, '$rhs' AS attr FROM " +
        s"(SELECT $Id, count(*) OVER (PARTITION BY ${lhs.mkString(", ")}) AS g FROM t) WHERE g > 1"
    }
    s"SELECT attr, count(*) AS n_cells FROM (SELECT DISTINCT $Id, attr FROM (${perFd.mkString(" UNION ALL ")})) GROUP BY attr"
  }

  private val ProfileSql = Fds.map { case (lhs, rhs) =>
    s"SELECT '${lhs.mkString(", ")} -> $rhs' AS fd, max(d) <= 1 AS holds, count(*) AS n_groups, " +
      "sum(CASE WHEN g > 1 THEN 1 ELSE 0 END) AS n_dup_groups, " +
      "sum(CASE WHEN g > 1 THEN g ELSE 0 END) AS n_nonunique_cells, sum(g * (g - 1)) AS n_witness_pairs " +
      s"FROM (SELECT count(*) AS g, count(DISTINCT $rhs) AS d FROM t GROUP BY ${lhs.mkString(", ")})"
  }.mkString(" UNION ALL ")
}
