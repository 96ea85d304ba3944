package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Optimization 1 (Definition 3.1 / Prop. 3.2): a position `p = (j, B)` has
  * `INF = 1` iff no other tuple agrees with tuple `j` on the LHS of any FD
  * `L→B` — then its entropy need not be computed at all.
  *
  * Locally [[nonUniquePositions]] reads one [[Partition]] per FD. Over
  * DataFrames, [[nonUniqueDF]] finds them with a window `count` per FD LHS —
  * the groupBy/aggregate redundancy scan that scales past driver memory. The
  * two are cross-checked against each other and against the DuckDB oracle in
  * the test suite.
  */
object Uniqueness {

  /** Positions that are NOT unique w.r.t. the FD set (Def. 3.1), i.e. whose
    * entropy is strictly below 1 by Prop. 3.2.
    */
  def nonUniquePositions(inst: Instance, fds: Seq[FD]): Set[Pos] = {
    val partition = Partition.of(inst)
    val byRhs = fds.filterNot(_.trivial).groupBy(_.rhs).map { case (b, fs) => b -> fs.map(f => partition(f.lhs)) }
    (for ((b, groups) <- byRhs; j <- 0 until inst.nRows if groups.exists(_.shared(j))) yield Pos(j, b)).toSet
  }

  /** Distributed variant: returns a DataFrame `(idCol, attr)` listing every
    * non-unique position of `df` (tuples identified by `idCol`) w.r.t. the
    * name-level FDs. One window-count scan per FD; Spark shares shuffles
    * across FDs with a common LHS. An empty-LHS FD `∅ → B` puts all rows in
    * one group, so it is decided by one row count instead of a window over a
    * single partition: every row is non-unique iff there are at least two.
    */
  def nonUniqueDF(df: DataFrame, fds: Seq[(Seq[String], String)], idCol: String): DataFrame = {
    require(fds.nonEmpty, "no FDs given")
    lazy val manyRows = df.limit(2).count() > 1
    val perFd = fds.filterNot { case (l, r) => l.contains(r) }.flatMap {
      case (lhs, rhs) if lhs.isEmpty =>
        Option.when(manyRows)(df.select(col(idCol), lit(rhs).as("attr")))
      case (lhs, rhs) =>
        val w = Window.partitionBy(lhs.map(col): _*)
        Some(df.select(col(idCol), count(lit(1)).over(w).as("grp_n"))
          .where(col("grp_n") > 1)
          .select(col(idCol), lit(rhs).as("attr")))
    }
    if (perFd.isEmpty) df.select(col(idCol), lit("").as("attr")).limit(0) // nothing non-unique
    else perFd.reduce(_.union(_)).distinct()
  }

  /** Distributed count of non-unique positions per attribute: the headline
    * statistic of a redundancy scan (`attr -> #cells with entropy < 1`).
    */
  def nonUniqueCountsDF(df: DataFrame, fds: Seq[(Seq[String], String)], idCol: String): DataFrame =
    nonUniqueDF(df, fds, idCol).groupBy(col("attr")).agg(count(lit(1)).as("n_cells"))
}
