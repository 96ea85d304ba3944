package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.core._
import repro.exp.Experiments
import repro.fdiscovery.FDDiscovery

/** Structural guarantees of the dataset mimics: the redundancy skeleton each
  * generator plants (and nothing else) must be what FD discovery sees —
  * these are exactly the properties the paper's RQ1 discussion rests on.
  */
class DatasetsSpec extends AnyFunSuite with SparkSpec {

  private val cache = scala.collection.mutable.Map.empty[String, Instance]
  private def inst(name: String): Instance =
    cache.getOrElseUpdate(name, Instance.fromDataFrame(Datasets.byName(spark)(name), "id"))

  private def fds(name: String, maxLhs: Int): Vector[FD] =
    FDDiscovery.discoverLocal(inst(name), maxLhs)

  // --- shapes ---------------------------------------------------------------

  for ((name, rows) <- Datasets.RowCounts.toSeq.sortBy(_._1)) {
    test(s"$name has $rows rows (the paper's 'rows analyzed')") {
      assert(inst(name).nRows == rows)
    }
  }

  test("column counts match the paper's datasets") {
    assert(inst("satellites").arity == 8)
    assert(inst("adult").arity == 15)
    assert(inst("echocardiogram").arity == 13)
    assert(inst("ncvoter").arity == 19)
    assert(inst("iris").arity == 5)
  }

  test("generators are deterministic") {
    assert(inst("satellites") == Instance.fromDataFrame(Datasets.satellites(spark), "id"))
    assert(inst("ncvoter") == Instance.fromDataFrame(Datasets.ncvoter(spark), "id"))
  }

  test("satellites cell count is the paper's 1200") {
    assert(inst("satellites").nCells == 1200)
  }

  // --- CD example -----------------------------------------------------------

  test("CD collection matches Figure 1a shape and fulfils the genuine FDs") {
    val i = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
    assert(i.nRows == 5 && i.arity == 7)
    assert(FDs.byName(i.attrs, Datasets.cdGenuineFds).forall(FDs.violation(i, _).isEmpty))
  }

  // --- satellites -----------------------------------------------------------

  test("satellites: mean_radius -> planet holds, reverse fails") {
    val i = inst("satellites")
    assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex("mean_radius")), i.attrIndex("planet")))
    assert(!FDDiscovery.holdsLocal(i, Set(i.attrIndex("planet")), i.attrIndex("mean_radius")))
  }

  test("satellites: discovered_by -> notes holds, reverse fails") {
    val i = inst("satellites")
    assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex("discovered_by")), i.attrIndex("notes")))
    assert(!FDDiscovery.holdsLocal(i, Set(i.attrIndex("notes")), i.attrIndex("discovered_by")))
  }

  test("satellites: name, year, orbit_class, designation are keys") {
    val i = inst("satellites")
    for (k <- Seq("name", "year", "orbit_class", "designation")) {
      val col = i.attrIndex(k)
      assert(i.rows.map(_(col)).distinct.size == i.nRows, s"$k not unique")
    }
  }

  test("satellites: plaque lands only in planet and notes") {
    val i = inst("satellites")
    val closed = FDs.closure(fds("satellites", 2))
    val nu = Uniqueness.nonUniquePositions(i, closed)
    val cols = nu.map(p => i.attrs(p.col))
    assert(cols == Set("planet", "notes"), s"got $cols")
  }

  test("satellites: ~90% of cells have full information content") {
    val i = inst("satellites")
    val closed = FDs.closure(fds("satellites", 2))
    val nu = Uniqueness.nonUniquePositions(i, closed)
    val fractionOnes = 1.0 - nu.size.toDouble / i.nCells
    assert(fractionOnes > 0.88 && fractionOnes < 0.92, s"got $fractionOnes")
  }

  test("satellites: the radius-3.0 group has 8 Saturn members (the zoom-in)") {
    val i = inst("satellites")
    val r = i.attrIndex("mean_radius"); val p = i.attrIndex("planet")
    val radius30 = i.rows.filter(row => row(r) == i.rows(6)(r))
    assert(i.rows(6)(r) == i.rows(13)(r)) // rows 6..13 share it
    assert(radius30.size == 8)
    assert(radius30.map(_(p)).distinct.size == 1)
  }

  test("satellites: Table-1 prefix layout (unique, pair-split-around-triple)") {
    val i = inst("satellites")
    val r = i.attrIndex("mean_radius")
    val col = i.rows.map(_(r))
    assert(col.count(_ == col(0)) == 1)           // row 0 unique
    assert(col(1) == col(5) && col.count(_ == col(1)) == 2)
    assert(col(2) == col(3) && col(3) == col(4) && col.count(_ == col(2)) == 3)
  }

  // --- adult ----------------------------------------------------------------

  test("adult: education <-> education_num is a bijection (cyclic FDs)") {
    val i = inst("adult")
    val e = i.attrIndex("education"); val n = i.attrIndex("education_num")
    assert(FDDiscovery.holdsLocal(i, Set(e), n))
    assert(FDDiscovery.holdsLocal(i, Set(n), e))
  }

  test("adult: plaque lands only in education and education_num") {
    val i = inst("adult")
    val closed = FDs.closure(fds("adult", 2))
    val cols = Uniqueness.nonUniquePositions(i, closed).map(p => i.attrs(p.col))
    assert(cols == Set("education", "education_num"), s"got $cols")
  }

  test("adult: education groups have 9-10 members") {
    val i = inst("adult")
    val e = i.attrIndex("education")
    val sizes = i.rows.groupBy(_(e)).values.map(_.size).toSet
    assert(sizes == Set(9, 10))
  }

  // --- echocardiogram -------------------------------------------------------

  test("echocardiogram: name column is constant") {
    val i = inst("echocardiogram")
    assert(i.rows.map(_(i.attrIndex("name"))).distinct.size == 1)
  }

  test("echocardiogram: every attribute determines name") {
    val i = inst("echocardiogram")
    val nameIdx = i.attrIndex("name")
    for (k <- i.attrs.indices if k != nameIdx)
      assert(FDDiscovery.holdsLocal(i, Set(k), nameIdx), s"${i.attrs(k)} -> name")
  }

  test("echocardiogram: bijective pairs hold both ways") {
    val i = inst("echocardiogram")
    for ((a, b) <- Seq("group" -> "group_code", "wall_score" -> "wall_index", "site" -> "site_code")) {
      assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex(a)), i.attrIndex(b)), s"$a -> $b")
      assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex(b)), i.attrIndex(a)), s"$b -> $a")
    }
  }

  test("echocardiogram: 11 of 13 columns carry plaque; mult and alive_at_1 stay white") {
    val i = inst("echocardiogram")
    val closed = FDs.closure(fds("echocardiogram", 2))
    val cols = Uniqueness.nonUniquePositions(i, closed).map(p => i.attrs(p.col))
    assert(cols.size == 11, s"got ${cols.size}: $cols")
    assert(!cols.contains("mult") && !cols.contains("alive_at_1"))
    assert(cols.contains("name"))
  }

  // --- ncvoter --------------------------------------------------------------

  test("ncvoter: state column is constant (North Carolina)") {
    val i = inst("ncvoter")
    assert(i.rows.map(_(i.attrIndex("state"))).distinct.size == 1)
  }

  test("ncvoter: every attribute determines state") {
    val i = inst("ncvoter")
    val s = i.attrIndex("state")
    for (k <- i.attrs.indices if k != s)
      assert(FDDiscovery.holdsLocal(i, Set(k), s), s"${i.attrs(k)} -> state")
  }

  test("ncvoter: county <-> county_id and city <-> zip are bijections") {
    val i = inst("ncvoter")
    for ((a, b) <- Seq("county" -> "county_id", "city" -> "zip")) {
      assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex(a)), i.attrIndex(b)), s"$a -> $b")
      assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex(b)), i.attrIndex(a)), s"$b -> $a")
    }
  }

  test("ncvoter: 15 of 19 columns carry plaque; party/gender/status/precinct stay white") {
    val i = inst("ncvoter")
    val closed = FDs.closure(fds("ncvoter", 2))
    val cols = Uniqueness.nonUniquePositions(i, closed).map(p => i.attrs(p.col))
    assert(cols.size == 15, s"got ${cols.size}: $cols")
    for (w <- Seq("party", "gender", "status", "precinct"))
      assert(!cols.contains(w), s"$w should stay white")
  }

  // --- iris -----------------------------------------------------------------

  test("iris: petal_length and petal_width each determine class") {
    val i = inst("iris")
    val c = i.attrIndex("class")
    assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex("petal_length")), c))
    assert(FDDiscovery.holdsLocal(i, Set(i.attrIndex("petal_width")), c))
  }

  test("iris: every discovered unary FD has class on the RHS") {
    val i = inst("iris")
    val found = fds("iris", 1)
    assert(found.nonEmpty)
    assert(found.forall(_.rhs == i.attrIndex("class")), s"got ${found.map(_.render(i.attrs))}")
  }

  test("iris: neither petal column determines the other") {
    val i = inst("iris")
    assert(!FDDiscovery.holdsLocal(i, Set(i.attrIndex("petal_length")), i.attrIndex("petal_width")))
    assert(!FDDiscovery.holdsLocal(i, Set(i.attrIndex("petal_width")), i.attrIndex("petal_length")))
  }

  test("iris: only the class column carries plaque") {
    val i = inst("iris")
    val closed = FDs.closure(fds("iris", 1))
    val cols = Uniqueness.nonUniquePositions(i, closed).map(p => i.attrs(p.col))
    assert(cols == Set("class"), s"got $cols")
  }

  test("iris: class has 3 values with 50 rows each") {
    val i = inst("iris")
    val c = i.attrIndex("class")
    val sizes = i.rows.groupBy(_(c)).values.map(_.size).toList
    assert(sizes == List(50, 50, 50))
  }

  // --- cross-dataset sanity -------------------------------------------------

  for (name <- Seq("satellites", "adult", "echocardiogram", "ncvoter", "iris")) {
    test(s"$name: every discovered FD actually holds") {
      val i = inst(name)
      val maxLhs = if (name == "iris") 1 else 2
      for (f <- fds(name, maxLhs)) assert(FDs.violation(i, f).isEmpty, f.render(i.attrs))
    }
  }

  for (name <- Seq("satellites", "adult", "iris")) {
    test(s"$name: the instance fulfils the closure of its discovered FDs") {
      val i = inst(name)
      val maxLhs = if (name == "iris") 1 else 2
      assert(FDs.closure(fds(name, maxLhs)).forall(FDs.violation(i, _).isEmpty))
    }
  }

  // --- closure on the discovered FDs ----------------------------------------

  private def prepared(name: String): Vector[FD] = Experiments.prepare(spark, name).fds

  for (name <- Seq("satellites", "adult", "echocardiogram", "ncvoter", "iris")) {
    test(s"$name: closure of the discovered FDs is idempotent") {
      val closed = FDs.closure(prepared(name))
      assert(FDs.closure(closed) == closed)
    }
  }

  for (name <- Seq("satellites", "adult", "echocardiogram", "iris")) {
    test(s"$name: closure of the discovered FDs equals the pairwise fixpoint") {
      assert(FDs.closure(prepared(name)) == TestGen.referenceClosure(prepared(name)))
    }
  }

  test("ncvoter: the discovered FDs are already closed (1,717 -> 1,717)") {
    // The pairwise fixpoint takes seconds here, so compare with the known fact.
    val found = prepared("ncvoter")
    val closed = FDs.closure(found)
    assert(closed.size == 1717)
    assert(closed.toSet == TestGen.minimizeFds(found).toSet)
  }

  for (name <- Seq("satellites", "adult", "echocardiogram", "ncvoter", "iris")) {
    test(s"$name: witness clauses of the closed FDs are duplicate-free and pairwise non-nested") {
      val prep = Experiments.prepare(spark, name)
      val all = Clauses.forAllPositions(prep.inst, FDs.closure(prep.fds))
      assert(all.nonEmpty)
      for ((p, cls) <- all) {
        val nested = for (i <- cls.indices; k <- cls.indices if i != k && cls(i).subsetOf(cls(k))) yield (i, k)
        assert(nested.isEmpty, s"at $p: clause pairs $nested")
      }
    }
  }

  // --- exact entropies ------------------------------------------------------

  for (name <- Seq("satellites", "adult")) {
    test(s"$name: runExact equals the subset-at-a-time reference at every position") {
      val prep = Experiments.prepare(spark, name)
      val res = PlaqueTest.runExact(prep.inst, prep.fds)
      val clauses = Clauses.forAllPositions(prep.inst, FDs.closure(prep.fds))
      assert(res.nonUnique == clauses.keySet && clauses.nonEmpty)
      for (p <- prep.inst.positions) {
        val want = clauses.get(p).fold(1.0)(TestGen.referenceViaClauses)
        assert(res.entropy(p) == want, s"at $p")
      }
    }
  }
}
