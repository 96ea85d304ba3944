package repro.fdiscovery

import org.apache.spark.sql.DataFrame

import repro.core.{FD, FDs, Instance}
import repro.scale.WitnessStats

/** Functional-dependency discovery — the Metanome substitute.
  *
  * The paper feeds its plaque test with left-reduced FDs with a single RHS
  * attribute, discovered by Metanome [11]. This module implements the same
  * contract: level-wise (apriori-style) discovery of *minimal* FDs from the
  * empty LHS up to a configurable LHS size, as TANE's lattice starts at `∅`.
  *
  *  - [[discoverLocal]] runs over an in-memory [[Instance]] (the evaluation
  *    datasets have ≤ 150 rows — exactly the paper's setting);
  *  - [[holdsSpark]] verifies a single FD distributively.
  *
  * The test suite checks [[holdsSpark]] against [[holdsLocal]] and against
  * the DuckDB oracle.
  */
object FDDiscovery {

  /** All minimal FDs with `|LHS| ∈ [0, maxLhs]` that hold in `inst`.
    *
    * The search starts at the empty LHS, so a constant column `B` yields the
    * single minimal FD `∅ → B`, and no `A → B` for it.
    */
  def discoverLocal(inst: Instance, maxLhs: Int = 2): Vector[FD] = {
    val violation = FDs.violations(inst)
    inst.attrs.indices.toVector.flatMap { rhs =>
      val others = inst.attrs.indices.filterNot(_ == rhs)
      // Level by level, the candidates of size `l` that contain no smaller FD's LHS.
      (0 to maxLhs).foldLeft(Vector.empty[Set[Int]]) { (minimal, l) =>
        minimal ++ others.combinations(l).map(_.toSet)
          .filter(c => !minimal.exists(_.subsetOf(c)) && violation(FD(c, rhs)).isEmpty)
      }.map(FD(_, rhs))
    }
  }

  /** Does `lhs -> rhs` hold in the instance? (See [[FDs.violation]].) */
  def holdsLocal(inst: Instance, lhs: Set[Int], rhs: Int): Boolean =
    FDs.violation(inst, FD(lhs, rhs)).isEmpty

  /** Name-level convenience over a DataFrame (collects via [[Instance]]). */
  def discover(df: DataFrame, orderBy: String, maxLhs: Int = 2): (Instance, Vector[FD]) = {
    val inst = Instance.fromDataFrame(df, orderBy)
    (inst, discoverLocal(inst, maxLhs))
  }

  /** Render FDs back to attribute names. */
  def byNames(inst: Instance, fds: Seq[FD]): Vector[(Seq[String], String)] =
    fds.map(f => (f.lhs.toSeq.sorted.map(inst.attrs), inst.attrs(f.rhs))).toVector

  /** Distributed verification of one FD: `lhs -> rhs` holds iff no LHS group
    * has two distinct non-null RHS values ([[WitnessStats.profile]]'s `holds`).
    */
  def holdsSpark(df: DataFrame, lhs: Seq[String], rhs: String): Boolean =
    WitnessStats.profile(df.sparkSession, df, Seq(lhs -> rhs)).select("holds").head().getBoolean(0)
}
