package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** End-to-end "plaque test": per-cell entropy matrix for a relation instance
  * under a set of functional dependencies (the paper's visualization input).
  *
  * Pipeline = closure (§2.1) → clause-shape classes → one position per
  * class with its witness-row signatures and lowered witness clauses (§3.1)
  * → an estimator for those, whose values their classes share; every other
  * position is unique and gets 1 (Prop. 3.2). [[run]] samples the clauses by
  * Monte Carlo (§3.2) on the session's cores as driver threads, [[runExact]]
  * evaluates the signatures exactly (Prop. 2.9).
  */
object PlaqueTest {

  /** Entropy matrix plus the artefacts needed by the benchmarks, held as one
    * class id per cell and one value per class (`INF` depends only on the
    * clause shape, §3.1); every derived view is built from these when read.
    *
    * @param inst       the analyzed instance
    * @param classOf    the clause-shape class of cell `row · arity + col`, an
    *                   index into `values`, or −1 for a unique cell (`INF = 1`,
    *                   Prop. 3.2); classes as in `Clauses.classes`: equal FD
    *                   column, equal multiset of witness-row signatures
    * @param values     one estimate per class, that of its representative
    * @param closedFds  the closure of the FDs of `F` whose LHS is not a key
    *                   of `inst` (see [[pipeline]]); it may hold key-LHS
    *                   resolvents, which have no witness row either
    * @param iterations MC iterations per non-unique cell (0 = exact)
    */
  final case class Result(
      inst: Instance,
      classOf: Array[Int],
      values: Array[Double],
      closedFds: Vector[FD],
      iterations: Long,
  ) {
    /** Entropy of cell `row · arity + col`. */
    private def cell(i: Int): Double = if (classOf(i) < 0) 1.0 else values(classOf(i))

    def entropy(p: Pos): Double = {
      require(p.col >= 0 && p.col < inst.arity, s"$p: no column ${p.col} among ${inst.arity}")
      cell(p.row * inst.arity + p.col)
    }

    /** `entropies(row)(col)` — 1.0 for unique cells. */
    lazy val entropies: Vector[Vector[Double]] = Vector.tabulate(inst.nRows, inst.arity)((j, k) => cell(j * inst.arity + k))

    /** Positions with entropy < 1 (Prop. 3.2 complement). */
    lazy val nonUnique: Set[Pos] = classOf.indices.filter(classOf(_) >= 0).map(i => Pos(i / inst.arity, i % inst.arity)).toSet

    /** Number of clause-shape classes, one estimate each. */
    def classes: Int = values.length

    def cells: Int = inst.nCells

    private[core] def byPosition: Map[Pos, Double] = inst.positions.map(p => p -> entropy(p)).toMap

    /** Entropies of column `k`, row by row. */
    private def column(k: Int): Iterator[Double] = Iterator.range(k, cells, inst.arity).map(cell)

    /** Smallest entropy in the matrix (1.0 for a redundancy-free instance). */
    def minEntropy: Double = values.foldLeft(1.0)(math.min)

    /** Number of cells with entropy below 1 (the colored cells of a heat map). */
    def cellsBelowOne: Int = classOf.count(c => c >= 0 && values(c) < 1.0)

    /** Fraction of cells with entropy exactly 1 (Fig. 4's headline); 1.0 on no cells. */
    def fractionOnes: Double = if (cells == 0) 1.0 else (cells - cellsBelowOne).toDouble / cells

    /** Attribute names with at least one cell below 1 ("columns with
      * plaque"; RQ1 reports these per dataset).
      */
    def plaqueColumns: Vector[String] =
      inst.attrs.indices.filter(k => column(k).exists(_ < 1.0)).map(inst.attrs).toVector

    /** Attribute names whose cells are all (approximately) zero entropy —
      * the "no informational value" columns of echocardiogram/NCVoter; none
      * on an instance without rows.
      */
    def zeroColumns(tol: Double = 0.05): Vector[String] =
      inst.attrs.indices.filter(k => inst.nRows > 0 && column(k).forall(_ <= tol)).map(inst.attrs).toVector

    /** Histogram over entropy values: bucket i covers
      * `[i*width, (i+1)*width)`, the last bucket additionally includes 1.0.
      * Throws unless `0 < width <= 1`.
      */
    def histogram(width: Double = 0.05): Vector[(Double, Int)] = {
      require(width > 0 && width <= 1, s"histogram bucket width $width is not in (0, 1]")
      val nBuckets = math.ceil(1.0 / width).toInt
      val counts = new Array[Int](nBuckets)
      for (i <- 0 until cells) counts(math.min(nBuckets - 1, (cell(i) / width).toInt)) += 1
      Vector.tabulate(nBuckets)(i => (i * width, counts(i)))
    }

    /** Long-format DataFrame `(row_id, attr, entropy)` for downstream SQL. */
    def toDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      val rows = (0 until cells).map(i => ((i / inst.arity).toLong, inst.attrs(i % inst.arity), cell(i)))
      rows.toDF("row_id", "attr", "entropy")
    }
  }

  /** Run the plaque test with Monte Carlo on driver threads, as many as the
    * session has cores; no Spark job runs. The entropies do not depend on
    * the number of cores.
    *
    * @param fds        the FD set `F` (closure is computed internally)
    * @param iterations MC iterations per non-unique cell
    */
  def run(
      spark: SparkSession,
      inst: Instance,
      fds: Seq[FD],
      iterations: Long,
      seed: Long = 42,
  ): Result =
    pipeline(inst, fds, iterations)(reps => MonteCarlo.sample(reps.map(r => r.pos -> r.clauses), iterations, seed, MonteCarlo.workers(spark)))

  /** Run the plaque test with *exact* entropies, each class's from its
    * witness-row signatures (`ExactEntropy.ofClass`). A class with more than
    * 64 closed FDs on its RHS or more than 26 LHS cells in its own row is an
    * `IllegalArgumentException` naming the least such representative (a
    * class's least position) and that count.
    */
  def runExact(inst: Instance, fds: Seq[FD]): Result =
    pipeline(inst, fds, 0L)(_.map(ExactEntropy.ofClass).toArray)

  /** The one plaque pipeline: check `I ⊨ F`, close the FDs of `F` whose
    * LHS is not a key of `I` (§2.1), key every non-unique position's
    * clause-shape class once (`Clauses.classes`, keyed off the same memoized
    * [[Partition]] as the check, so each LHS is grouped once), describe
    * each class's least `(row, col)` position only, by its witness-row
    * signatures and lowered witness clauses (§3.1, `Clauses.Rep`), and
    * estimate those. `estimate` receives the representatives in ascending
    * `(row, col)` order and must return one value per entry, in the same
    * order; [[Result]] gives each class member its representative's value and
    * every other position `INF = 1` (Prop. 3.2).
    *
    * The clause reformulation assumes `I ⊨ F` (hence `I ⊨ F*`), so an FD
    * that does not hold is rejected ([[FDs.requireHolds]]).
    *
    * Key-LHS FDs are left out of the closure (TANE prunes keys likewise):
    * such an FD has no witness row, so no clause (Prop. 3.2), and neither has
    * any resolvent of it. As the left premise `L → r` its LHS is in the
    * resolvent's; as the right premise `M → c` the resolvent's LHS
    * `L ∪ M∖{r}` determines `M` in `I`, as `I ⊨ L → r`. So every non-key FD
    * of `F*` derives from non-key FDs alone, and a subset of a non-key LHS is
    * no key: both closures have the same non-key FDs, hence the same clauses.
    * The 64-column limit of [[FDs.closure]] binds only the non-key FDs.
    */
  private[core] def pipeline(inst: Instance, fds: Seq[FD], iterations: Long)(
      estimate: Seq[Clauses.Rep] => Array[Double]): Result = {
    val partition = Partition.of(inst)
    FDs.requireHolds(inst, fds, partition)
    val closed = FDs.closure(fds.filterNot(f => partition(f.lhs).key))
    val (classOf, reps) = Clauses.classes(inst, closed, partition)
    Result(inst, classOf, estimate(reps), closed, iterations)
  }
}
