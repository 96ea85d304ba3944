package repro.core

import scala.collection.immutable.VectorMap

import org.apache.spark.sql.{DataFrame, SparkSession}

/** End-to-end "plaque test": per-cell entropy matrix for a relation instance
  * under a set of functional dependencies (the paper's visualization input).
  *
  * Pipeline = closure (§2.1) → clause-shape classes → lowered witness clauses
  * (§3.1) of one position per class → an estimator for those, whose values
  * their classes share; every other position is unique and gets 1
  * (Prop. 3.2). [[run]] estimates by Monte Carlo (§3.2) on the session's
  * cores as driver threads, [[runExact]] exactly (Prop. 2.9).
  */
object PlaqueTest {

  /** Entropy matrix plus the artefacts needed by the benchmarks.
    *
    * @param inst       the analyzed instance
    * @param entropies  `entropies(row)(col)` — 1.0 for unique cells
    * @param nonUnique  positions with entropy < 1 (Prop. 3.2 complement)
    * @param classes    clause-shape classes of `nonUnique`, one estimate each
    *                   (`Clauses.classes`: equal FD column, equal multiset
    *                   of witness-row signatures)
    * @param closedFds  the closure of the FDs of `F` whose LHS is not a key
    *                   of `inst` (see [[pipeline]]); it may hold key-LHS
    *                   resolvents, which have no witness row either
    * @param iterations MC iterations per non-unique cell (0 = exact)
    */
  final case class Result(
      inst: Instance,
      entropies: Vector[Vector[Double]],
      nonUnique: Set[Pos],
      classes: Int,
      closedFds: Vector[FD],
      iterations: Long,
  ) {
    def entropy(p: Pos): Double = entropies(p.row)(p.col)

    def cells: Int = inst.nCells

    private[core] def byPosition: Map[Pos, Double] = inst.positions.map(p => p -> entropy(p)).toMap

    /** Smallest entropy in the matrix (1.0 for a redundancy-free instance). */
    def minEntropy: Double =
      entropies.iterator.flatMap(_.iterator).foldLeft(1.0)(math.min)

    /** Number of cells with entropy below 1 (the colored cells of a heat map). */
    def cellsBelowOne: Int = entropies.iterator.flatMap(_.iterator).count(_ < 1.0)

    /** Fraction of cells with entropy exactly 1 (Fig. 4's headline). */
    def fractionOnes: Double = (cells - cellsBelowOne).toDouble / cells

    /** Attribute names with at least one cell below 1 ("columns with
      * plaque"; RQ1 reports these per dataset).
      */
    def plaqueColumns: Vector[String] =
      inst.attrs.indices.filter(k => entropies.exists(row => row(k) < 1.0)).map(inst.attrs).toVector

    /** Attribute names whose cells are all (approximately) zero entropy —
      * the "no informational value" columns of echocardiogram/NCVoter.
      */
    def zeroColumns(tol: Double = 0.05): Vector[String] =
      inst.attrs.indices
        .filter(k => entropies.forall(row => row(k) <= tol))
        .map(inst.attrs)
        .toVector

    /** Histogram over entropy values: bucket i covers
      * `[i*width, (i+1)*width)`, the last bucket additionally includes 1.0.
      */
    def histogram(width: Double = 0.05): Vector[(Double, Int)] = {
      val nBuckets = math.ceil(1.0 / width).toInt
      val counts = new Array[Int](nBuckets)
      for (row <- entropies; e <- row) {
        val b = math.min(nBuckets - 1, (e / width).toInt)
        counts(b) += 1
      }
      Vector.tabulate(nBuckets)(i => (i * width, counts(i)))
    }

    /** Long-format DataFrame `(row_id, attr, entropy)` for downstream SQL. */
    def toDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      val rows = for {
        j <- inst.rows.indices
        k <- inst.attrs.indices
      } yield (j.toLong, inst.attrs(k), entropies(j)(k))
      rows.toDF("row_id", "attr", "entropy")
    }
  }

  /** Run the plaque test with Monte Carlo on driver threads, as many as the
    * session has cores; no Spark job runs. The entropies equal
    * `MonteCarlo.matrixLocal(inst, fds, iterations, seed)` exactly.
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
    pipeline(inst, fds, iterations)(MonteCarlo.sample(_, iterations, seed, MonteCarlo.workers(spark)))

  /** Run the plaque test with *exact* clause-based entropies. Only class
    * representatives are enumerated, so a class whose clause-cell union
    * exceeds 26 cells is an `IllegalArgumentException` naming the least such
    * representative (a class's least position) and its union size.
    */
  def runExact(inst: Instance, fds: Seq[FD]): Result =
    pipeline(inst, fds, 0L)(_.map { case (p, mc) => p -> ExactEntropy.viaClauses(p, mc) })

  /** Convenience entry point from a DataFrame with name-level FDs. */
  def fromDataFrame(
      spark: SparkSession,
      df: DataFrame,
      orderBy: String,
      fds: Seq[(Seq[String], String)],
      iterations: Long,
      seed: Long = 42,
  ): Result = {
    val inst = Instance.fromDataFrame(df, orderBy)
    run(spark, inst, FDs.byName(inst.attrs, fds), iterations, seed)
  }

  /** The one plaque pipeline: check `I ⊨ F`, close the FDs of `F` whose
    * LHS is not a key of `I` (§2.1), key every non-unique position's
    * clause-shape class once (`Clauses.classes`, keyed off the same memoized
    * [[Partition]] as the check, so each LHS is grouped once), lower the
    * witness clauses (§3.1) of each class's least `(row, col)` position only,
    * estimate those, copy each value to its class, and set `INF = 1`
    * elsewhere (Prop. 3.2).
    * `estimate` receives only non-empty clause sets, in ascending `(row, col)`
    * order, and must return a value for each of its keys.
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
      estimate: Map[Pos, MonteCarlo.MaskedClauses] => Map[Pos, Double]): Result = {
    val partition = Partition.of(inst)
    FDs.requireHolds(inst, fds, partition)
    val closed = FDs.closure(fds.filterNot(f => partition(f.lhs).key))
    val (repOf, reps) = Clauses.classes(inst, closed, partition)
    val below = spread(repOf, reps)(estimate)
    val matrix = Vector.tabulate(inst.nRows, inst.arity)((j, k) => below.getOrElse(Pos(j, k), 1.0))
    Result(inst, matrix, below.keySet, reps.size, closed, iterations)
  }

  /** `estimate` gets one representative per class with its own clauses
    * (`lowered`, read for representatives only), in ascending `(row, col)`
    * order (`INF` and the law of its MC estimate depend only on the shape),
    * and every member of `repOf` gets its representative's value.
    */
  private[core] def spread(repOf: Map[Pos, Pos], lowered: Pos => Clauses.Lowered)(
      estimate: Map[Pos, MonteCarlo.MaskedClauses] => Map[Pos, Double]): Map[Pos, Double] = {
    val reps = repOf.valuesIterator.distinct.toSeq.sortBy(p => (p.row, p.col))
    val values = estimate(VectorMap.from(reps.map(p => p -> lowered(p).mc)))
    repOf.map { case (p, rep) => p -> values(rep) }
  }
}
