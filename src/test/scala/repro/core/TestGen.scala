package repro.core

import org.apache.spark.sql.DataFrame

import scala.collection.immutable.ArraySeq
import scala.util.Random

/** Deterministic random generators for property-style tests: small instances
  * repaired to fulfil a random FD set.
  */
object TestGen {

  /** A random instance/FD pair with `I ⊨ F` (repaired by value propagation;
    * generation is retried until the repair converges).
    */
  def instanceWithFds(seed: Long, maxRows: Int = 4, maxCols: Int = 4, maxFds: Int = 3): (Instance, Vector[FD]) = {
    val rng = new Random(seed)
    var attempt = 0
    while (attempt < 50) {
      val nRows = 2 + rng.nextInt(maxRows - 1)
      val nCols = 2 + rng.nextInt(maxCols - 1)
      val attrs = Vector.tabulate(nCols)(k => s"A$k")
      val rows = Vector.fill(nRows)(Vector.fill(nCols)(rng.nextInt(3)))
      val fds = Vector.fill(1 + rng.nextInt(maxFds)) {
        val rhs = rng.nextInt(nCols)
        val lhsSize = 1 + rng.nextInt(math.min(2, nCols - 1))
        val lhs = rng.shuffle((0 until nCols).filterNot(_ == rhs).toList).take(lhsSize).toSet
        FD(lhs, rhs)
      }.distinct
      repaired(attrs, rows, fds) match {
        case Some(inst) => return (inst, fds)
        case None => attempt += 1
      }
    }
    throw new IllegalStateException(s"no repairable instance for seed $seed")
  }

  /** Like [[instanceWithFds]], with 2–7 rows, 3–6 columns over `{0, 1, 2}`,
    * some columns constant, and 1–4 FDs whose LHSs have 0–4 columns.
    */
  def instanceWithWideFds(seed: Long): (Instance, Vector[FD]) = {
    val rng = new Random(seed)
    var attempt = 0
    while (attempt < 50) {
      val nRows = 2 + rng.nextInt(6)
      val nCols = 3 + rng.nextInt(4)
      val attrs = Vector.tabulate(nCols)(k => s"A$k")
      val constant = Vector.fill(nCols)(rng.nextInt(4) == 0)
      val rows = Vector.fill(nRows)(Vector.tabulate(nCols)(k => if (constant(k)) 1 else rng.nextInt(3)))
      val fds = Vector.fill(1 + rng.nextInt(4)) {
        val rhs = rng.nextInt(nCols)
        val lhs = rng.shuffle((0 until nCols).filterNot(_ == rhs).toList).take(rng.nextInt(math.min(5, nCols))).toSet
        FD(lhs, rhs)
      }.distinct
      repaired(attrs, rows, fds) match {
        case Some(inst) => return (inst, fds)
        case None => attempt += 1
      }
    }
    throw new IllegalStateException(s"no repairable instance for seed $seed")
  }

  /** Random instances with their FDs: 200 narrow and 300 wide (empty LHSs,
    * constant columns) ones, the wide ones also with duplicate rows and cut
    * to 0 and 1 rows.
    */
  lazy val pipelineCases: Seq[(String, Instance, Vector[FD])] =
    (0L until 200L).map { seed =>
      val (inst, fds) = instanceWithFds(seed)
      (s"narrow seed $seed", inst, fds)
    } ++ (0L until 300L).flatMap { seed =>
      val (inst, fds) = instanceWithWideFds(seed)
      Seq(
        (s"wide seed $seed", inst, fds),
        // Duplicates keep I ⊨ F, and no LHS is a key.
        (s"wide seed $seed, rows doubled", Instance(inst.attrs, inst.rows.flatMap(r => Vector(r, r))), fds),
        (s"wide seed $seed, 1 row", Instance(inst.attrs, inst.rows.take(1)), fds),
        (s"wide seed $seed, 0 rows", Instance(inst.attrs, Vector.empty), fds),
      )
    }

  /** Force each FD's RHS to its group representative, to a fixpoint; the
    * instance if that converges and fulfils the closure.
    */
  private def repaired(attrs: Vector[String], start: Vector[Vector[Int]], fds: Vector[FD]): Option[Instance] = {
    var rows = start
    var it = 0
    var stable = false
    while (it < 25 && !stable) {
      stable = true
      for (fd <- fds) {
        val lhs = fd.lhs.toVector.sorted
        val repr = scala.collection.mutable.Map.empty[Vector[Int], Int]
        rows = rows.map { r =>
          val key = lhs.map(r)
          val v = repr.getOrElseUpdate(key, r(fd.rhs))
          if (r(fd.rhs) != v) { stable = false; r.updated(fd.rhs, v) }
          else r
        }
      }
      it += 1
    }
    val inst = Instance(attrs, rows)
    Option.when(stable && FDs.closure(fds).forall(FDs.violation(inst, _).isEmpty))(inst)
  }

  /** The hash-grouped Definition 2.3 check that `FDs.violation` replaced,
    * kept as its oracle: both must return the same pair of rows.
    */
  def referenceViolation(inst: Instance, fd: FD): Option[(Int, Int)] = {
    if (fd.trivial) return None
    val lhs = fd.lhs.toVector.sorted
    val rows = inst.rows
    val first = scala.collection.mutable.HashMap.empty[Vector[Int], Int]
    var j = 0
    while (j < rows.length) {
      val i = first.getOrElseUpdate(lhs.map(rows(j)), j)
      if (i != j && rows(i)(fd.rhs) != rows(j)(fd.rhs)) return Some((i, j))
      j += 1
    }
    None
  }

  /** The witness clauses of `p` by definition: one rescan of all rows per FD
    * with RHS `p.col`, minimized by subsumption. `Clauses.forAllPositions`
    * must equal it, clause order included, on closed FD sets.
    */
  def referenceClauses(inst: Instance, closedFds: Seq[FD], p: Pos): Vector[Set[Pos]] = {
    val raw = for {
      fd <- closedFds.toVector
      if fd.rhs == p.col && !fd.trivial
      lhs = fd.lhs.toVector.sorted
      base = lhs.map(c => inst.rows(p.row)(c))
      j2 <- inst.rows.indices.toVector
      if j2 != p.row && lhs.map(c => inst.rows(j2)(c)) == base
    } yield lhs.map(c => Pos(p.row, c)).toSet ++ lhs.map(c => Pos(j2, c)) + Pos(j2, fd.rhs)
    minimizeClauses(raw)
  }

  /** `(I_{Q←X})_{p←a} ⊨ F*` by Definition 2.4, literally: the instance whose
    * cells at `vars` (`Q`) hold pairwise-distinct variables and whose cells
    * in `put` (e.g. the fresh value `a` at `p`; not in `vars`) are
    * overwritten fulfils a single FD `A_1...A_s -> B` iff for all tuple pairs
    * whose `B`-cells are constants and whose LHS cells are constants with
    * equal values, the `B` values agree. A tuple with a variable in its LHS
    * never collides with another tuple. `closedFds` must be the closure `F*`:
    * for an instance with variables, fulfilling `F` FD by FD is not enough.
    * `ExactEntropy.Kernel` and the witness clauses must equal it.
    */
  def referenceFulfills(inst: Instance, closedFds: Seq[FD], vars: Set[Pos], put: Map[Pos, Int]): Boolean =
    closedFds.forall(fd => fulfillsOne(inst, fd, vars, put))

  /** Single-FD check, pairwise over tuples (O(rows² · |lhs|)). */
  private def fulfillsOne(inst: Instance, fd: FD, vars: Set[Pos], put: Map[Pos, Int]): Boolean = {
    if (fd.trivial) return true
    val lhs = fd.lhs.toArray.sorted
    val n = inst.nRows

    def v(j: Int, k: Int): Int = put.getOrElse(Pos(j, k), inst.rows(j)(k))
    def isVar(j: Int, k: Int): Boolean = vars.contains(Pos(j, k))

    var j1 = 0
    while (j1 < n) {
      if (!isVar(j1, fd.rhs) && lhs.forall(k => !isVar(j1, k))) {
        var j2 = j1 + 1
        while (j2 < n) {
          if (!isVar(j2, fd.rhs) && lhs.forall(k => !isVar(j2, k)) &&
              lhs.forall(k => v(j1, k) == v(j2, k)) &&
              v(j1, fd.rhs) != v(j2, fd.rhs)) return false
          j2 += 1
        }
      }
      j1 += 1
    }
    true
  }

  /** Remove duplicate clauses and clauses that are supersets of another. */
  def minimizeClauses(clauses: Seq[Set[Pos]]): Vector[Set[Pos]] = {
    val distinct = clauses.distinct.sortBy(_.size)
    val kept = scala.collection.mutable.ArrayBuffer.empty[Set[Pos]]
    for (c <- distinct if !kept.exists(_.subsetOf(c))) kept += c
    kept.toVector
  }

  /** `X(Q)`: 1 iff deleting the cells in `q` breaks every witness clause. */
  def evalClauses(clauses: Seq[Set[Pos]], q: Set[Pos]): Boolean =
    clauses.forall(c => c.exists(q.contains))

  /** Drop trivial FDs, duplicates, and FDs subsumed by another FD with the
    * same RHS and a subset LHS. The result determines the same minimal
    * witness clauses as the input.
    */
  def minimizeFds(fds: Seq[FD]): Vector[FD] = {
    val nontrivial = fds.filterNot(_.trivial).distinct
    nontrivial.filterNot { f =>
      nontrivial.exists(g => g != f && g.rhs == f.rhs && g.lhs.subsetOf(f.lhs))
    }.toVector
  }

  /** The pairwise pseudo-transitivity fixpoint that `FDs.closure` replaced,
    * kept as its oracle: the output must match element for element and in
    * order.
    */
  def referenceClosure(fds: Seq[FD]): Vector[FD] = {
    var known = minimizeFds(fds).toSet
    var changed = true
    while (changed) {
      changed = false
      val derived = for {
        f <- known.iterator
        g <- known.iterator
        if g.lhs.contains(f.rhs)
        cand = FD(f.lhs ++ (g.lhs - f.rhs), g.rhs)
        if !cand.trivial
        if !known.exists(h => h.rhs == cand.rhs && h.lhs.subsetOf(cand.lhs))
      } yield cand
      val fresh = derived.toSet
      if (fresh.nonEmpty) {
        // Re-minimize: a new FD may subsume previously known ones.
        known = minimizeFds((known ++ fresh).toSeq).toSet
        changed = true
      }
    }
    known.toVector.sortBy(f => (f.rhs, f.lhs.size, f.lhs.toSeq.sorted.mkString(",")))
  }

  /** A random FD set over `arity` ∈ [2, 8] columns with 0–10 FDs, mixing in
    * empty LHSs, trivial FDs, duplicates and reversed (cyclic) FDs.
    */
  def fdSet(seed: Long): (Int, Vector[FD]) = {
    val rng = new Random(seed)
    val arity = 2 + rng.nextInt(7)
    val fds = Vector.newBuilder[FD]
    var last = Option.empty[FD]
    for (_ <- 0 until rng.nextInt(11)) {
      val fd = (rng.nextInt(5), last) match {
        case (0, Some(f)) => f // duplicate
        case (1, Some(f)) if f.lhs.nonEmpty => FD(Set(f.rhs), f.lhs.head) // cycle
        case _ =>
          val rhs = rng.nextInt(arity)
          val density = rng.nextDouble() * 0.6 // a low density often gives an empty LHS
          FD((0 until arity).filter(_ => rng.nextDouble() < density).toSet, rhs) // may be trivial
      }
      fds += fd
      last = Some(fd)
    }
    (arity, fds.result())
  }

  /** The exact value of a clause set over positions by the subset-at-a-time
    * enumeration of its clause-cell union (at most 26 cells): the fraction
    * of deletion sets that hit every clause. The oracle of
    * `ExactEntropy.ofClass`, which must match it bit for bit on witness
    * clauses.
    */
  def referenceViaClauses(clauses: Seq[Set[Pos]]): Double = {
    if (clauses.isEmpty) return 1.0
    val mc = MonteCarlo.mask(clauses)
    require(mc.nVars <= 26, s"clause-cell union of ${mc.nVars} cells refused")
    // 26 < 64, so every clause fits in one word.
    val masks = mc.vars.map(_.foldLeft(0L)((acc, v) => acc | 1L << v))
    val total = 1L << mc.nVars
    var hit = 0L
    var mask = 0L
    while (mask < total) {
      var ok = true
      var i = 0
      while (ok && i < masks.length) {
        if ((masks(i) & mask) == 0L) ok = false
        i += 1
      }
      if (ok) hit += 1
      mask += 1
    }
    hit.toDouble / total
  }

  /** The global-sort encode that `Instance.fromDataFrame` replaced, kept as
    * its oracle: on a unique, non-null integral id the instances must be
    * equal.
    */
  def referenceFromDataFrame(df: DataFrame, orderBy: String): Instance = {
    val dataCols = df.columns.filterNot(_ == orderBy).toSeq
    val local = df.orderBy(orderBy).select(orderBy, dataCols: _*).collect()
    Instance.encode(dataCols, local.map(r => dataCols.indices.map(i => r.get(i + 1))).toSeq)
  }

  /** The clause-by-clause sampler loop on sequential `SplittableRandom`
    * draws that `MonteCarlo`'s flat 3-cell pass on random-access words
    * replaced, kept as its oracle: for the same `rng` seed the hit counts
    * must be equal.
    */
  def referenceHits(mc: MonteCarlo.MaskedClauses, iters: Long, rng: java.util.SplittableRandom): Long = {
    val deleted = new Array[Long](mc.nVars)
    var total = 0L
    var left = iters
    while (left > 0) {
      for (v <- deleted.indices) deleted(v) = rng.nextLong()
      var alive = if (left >= 64) -1L else (1L << left) - 1
      for (c <- mc.vars) alive &= c.foldLeft(0L)((hit, v) => hit | deleted(v))
      total += java.lang.Long.bitCount(alive)
      left -= 64
    }
    total
  }

  /** The per-clause mask key that `Clauses.classes` (on the partitions) and
    * `Clauses.representatives` (on clauses over positions) replaced, kept as
    * the oracle of both: the clause shape of a position `p` with clauses
    * over `arity` columns. For each row other than `p.row`, the
    * sorted list of `(columns in p.row, columns in that row)` masks of the
    * clauses that touch it, `⌈arity / 64⌉` words per mask, and these per-row
    * lists as a canonical multiset. `None` if a clause touches no row or two
    * rows besides `p.row`: such a position is a class of its own.
    *
    * The returned function numbers each distinct mask pair and each distinct
    * per-row list in one table, so that the sorts run on primitive ids; its
    * shapes compare only with shapes from the same function.
    */
  def shapes(arity: Int): (Pos, Seq[Set[Pos]]) => Option[ArraySeq[Long]] = {
    val w = (arity + 63) / 64
    val ids = scala.collection.mutable.HashMap.empty[ArraySeq[Long], Long]
    def id(words: Array[Long]): Long = ids.getOrElseUpdate(ArraySeq.unsafeWrapArray(words), ids.size.toLong)
    // Clause `c` of `p`: its other row in the high half and the id of its
    // mask pair in the low half, or -1 if it touches no row or two rows besides p.row.
    def entry(p: Pos, c: Set[Pos]): Long = {
      val masks = new Array[Long](2 * w)
      var other = -1
      val cells = c.iterator
      while (cells.hasNext) {
        val Pos(row, col) = cells.next()
        if (row == p.row) masks(col / 64) |= 1L << col
        else if (other == -1 || other == row) { other = row; masks(w + col / 64) |= 1L << col }
        else return -1L
      }
      if (other == -1) -1L else other.toLong << 32 | id(masks)
    }
    (p, clauses) => {
      val byRow = new Array[Long](clauses.length)
      var i = 0
      while (i < clauses.length && { byRow(i) = entry(p, clauses(i)); byRow(i) >= 0 }) i += 1
      if (i < clauses.length) None
      else {
        java.util.Arrays.sort(byRow)
        val rows = Array.newBuilder[Long]
        var from = 0
        while (from < byRow.length) {
          var until = from + 1
          while (until < byRow.length && byRow(until) >>> 32 == byRow(from) >>> 32) until += 1
          rows += id(byRow.slice(from, until).map(_ & 0xffffffffL))
          from = until
        }
        val key = rows.result()
        java.util.Arrays.sort(key)
        Some(ArraySeq.unsafeWrapArray(key))
      }
    }
  }

  /** A random subset of positions excluding `p`. */
  def randomQ(inst: Instance, p: Pos, rng: Random): Set[Pos] =
    inst.positions.filterNot(_ == p).filter(_ => rng.nextBoolean()).toSet
}
