package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Optimization 1 (Definition 3.1 / Prop. 3.2): a position `p = (j, B)` has
  * `INF = 1` iff no other tuple agrees with tuple `j` on the LHS of any FD
  * `L→B` — then its entropy need not be computed at all.
  *
  * Locally [[nonUniquePositions]] reads one [[Partition]] per FD. Over
  * DataFrames, [[nonUniqueDF]] finds them with one window `count` per distinct
  * LHS, all in one pass — the redundancy scan that scales past driver memory.
  * The two are cross-checked against each other and against the DuckDB oracle
  * in the test suite.
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
    * name-level FDs, in one pass over `df` with one window count per distinct
    * non-empty LHS. An empty-LHS FD `∅ → B` puts all rows in one group, so it
    * is decided by one row count instead of a window over a single partition:
    * every row is non-unique iff there are at least two. Without a
    * non-trivial FD (also for an empty list) the frame is empty.
    */
  def nonUniqueDF(df: DataFrame, fds: Seq[(Seq[String], String)], idCol: String): DataFrame = {
    val nonTrivial = fds.filterNot { case (l, r) => l.contains(r) }
    if (nonTrivial.isEmpty) return df.select(col(idCol), lit("").as("attr")).limit(0) // nothing non-unique
    lazy val manyRows = df.limit(2).count() > 1
    val lhss = nonTrivial.map(_._1).filter(_.nonEmpty).distinct
    // The windows get their own select: Spark rejects a window inside `explode`.
    val grouped = df.select(col(idCol) +: lhss.zipWithIndex.map { case (l, i) =>
      count(lit(1)).over(Window.partitionBy(l.map(col): _*)).as(s"grp_n$i")
    }: _*)
    val attrs = nonTrivial.groupBy(_._2).map { case (b, fs) =>
      val shared = fs.map { case (l, _) => if (l.isEmpty) lit(manyRows) else col(s"grp_n${lhss.indexOf(l)}") > 1 }
      when(shared.reduce(_ || _), lit(b))
    }
    grouped.select(col(idCol), explode(array(attrs.toSeq: _*)).as("attr")).where(col("attr").isNotNull)
  }

  /** Distributed count of non-unique positions per attribute: the headline
    * statistic of a redundancy scan (`attr -> #cells with entropy < 1`).
    */
  def nonUniqueCountsDF(df: DataFrame, fds: Seq[(Seq[String], String)], idCol: String): DataFrame =
    nonUniqueDF(df, fds, idCol).groupBy(col("attr")).agg(count(lit(1)).as("n_cells"))
}
