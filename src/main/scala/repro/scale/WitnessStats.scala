package repro.scale

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DateType, DoubleType, IntegerType, LongType}

/** Distributed redundancy profiling at data scale.
  *
  * The paper's prototype is single-threaded and tops out at 150 rows; its
  * outlook names parallelization as the way to scale. This module runs the
  * building block that dominates that scaling — the per-LHS duplicate-group
  * scan behind Prop. 3.2 (which cells can carry plaque at all, and how many
  * witnesses each has) — as Spark `groupBy`/`agg` dataflows over TPC-H-lite
  * data at SF 0.1, i.e. millions of cells instead of hundreds.
  */
object WitnessStats {

  // Rows per unit of scale factor, as in TPC-H (SF 1 ≈ 1 GB across tables).
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L

  private def n(perSf: Long, sf: Double): Long = math.max(1L, (perSf * sf).toLong)

  // Each column draws from its own fixed `rand(seed + k)`, so a column's
  // values do not depend on which other columns are generated.

  /** Per-FD redundancy profile of `df`, one row per FD in the order of `fds`:
    *
    *  - `fd`               rendered `lhs -> rhs`, an empty LHS as `∅` (as `FD.render`)
    *  - `holds`            whether the FD holds (no group has two distinct non-null RHS values)
    *  - `n_groups`         number of distinct LHS values (0 on an empty frame)
    *  - `n_dup_groups`     groups of size ≥ 2
    *  - `n_nonunique_cells` RHS cells with entropy < 1 (Prop. 3.2)
    *  - `n_witness_pairs`  Σ over groups of g·(g−1) — total witness-clause count
    *
    * One aggregate per distinct LHS serves all its FDs: each RHS `b` adds
    * `max(b) <=> min(b)` per group to the group counts.
    */
  def profile(spark: SparkSession, df: DataFrame, fds: Seq[(Seq[String], String)]): DataFrame = {
    import spark.implicits._
    val rows = fds.map(_._1).distinct.flatMap { lhs =>
      val rhss = fds.collect { case (`lhs`, b) => b }.distinct
      // Positional aliases: an RHS may also be an LHS column, i.e. a grouping key.
      val same = rhss.indices.map(k => (max(col(rhss(k))) <=> min(col(rhss(k)))).as(s"same$k"))
      val g = df
        .groupBy(lhs.map(col): _*)
        .agg(count(lit(1)).as("g"), same: _*)
        .agg(
          // An ∅ LHS on an empty frame still yields one group, of size 0.
          count(when(col("g") > 0, 1)),
          Seq(
            count(when(col("g") > 1, 1)),
            coalesce(sum(when(col("g") > 1, col("g"))), lit(0L)),
            coalesce(sum(col("g") * (col("g") - 1)), lit(0L)),
          ) ++ rhss.indices.map(k => count(when(!col(s"same$k"), 1)) === 0): _*
        )
        .collect()(0)
      rhss.indices.map { k =>
        val fd = s"${if (lhs.isEmpty) "∅" else lhs.mkString(", ")} -> ${rhss(k)}"
        (lhs, rhss(k)) -> (fd, g.getBoolean(4 + k), g.getLong(0), g.getLong(1), g.getLong(2), g.getLong(3))
      }
    }.toMap
    fds.map(rows).toDF("fd", "holds", "n_groups", "n_dup_groups", "n_nonunique_cells", "n_witness_pairs")
  }

  /** TPC-H-lite orders with a planted low-cardinality FD target: `o_region`
    * is derived from `o_custkey`, so `o_custkey -> o_region` holds and every
    * customer with ≥ 2 orders contributes redundant region cells — the
    * denormalisation pattern the plaque test is built to expose. Like
    * [[lineitemDenorm]], it is deterministic in `(sf, seed)` and generates
    * only the columns the scan reads.
    */
  def ordersWithRegion(spark: SparkSession, sf: Double, seed: Long = 1): DataFrame =
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      col("o_orderkey"),
      (rand(seed) * n(NCustomerPerSf, sf) + 1).cast(LongType) as "o_custkey",
      date_add(lit("1992-01-01").cast(DateType), (rand(seed + 3) * 2406).cast("int")) as "o_orderdate",
    ).withColumn("o_region", pmod(col("o_custkey"), lit(25)))

  /** Denormalised lineitem ⋈ orders: order-level attributes are repeated per
    * line item, i.e. `l_orderkey -> {o_custkey, o_orderdate, o_region}` hold
    * with one witness per extra line item of the order.
    */
  def lineitemDenorm(spark: SparkSession, sf: Double, seed: Long = 0): DataFrame = {
    val li = spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed) * n(NOrdersPerSf, sf) + 1).cast(LongType) as "l_orderkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)            as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)            as "l_quantity",
    )
    val ord = ordersWithRegion(spark, sf)
    li.join(ord, li("l_orderkey") === ord("o_orderkey")).drop("o_orderkey")
  }

  /** The planted FDs of [[lineitemDenorm]]. */
  val denormFds: Seq[(Seq[String], String)] = Seq(
    Seq("l_orderkey") -> "o_custkey",
    Seq("l_orderkey") -> "o_orderdate",
    Seq("l_orderkey") -> "o_region",
    Seq("o_custkey")  -> "o_region",
  )
}
