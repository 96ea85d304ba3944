package repro.fdiscovery

import org.apache.spark.sql.DataFrame
import org.scalatest.funsuite.AnyFunSuite

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.Datasets
import repro.exp.{Experiments, Fig3Exp}

class FDDiscoverySpec extends AnyFunSuite with SparkSpec {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )

  test("holdsLocal on Example 3.4") {
    assert(FDDiscovery.holdsLocal(ex34, Set(0), 2))  // A -> C
    assert(FDDiscovery.holdsLocal(ex34, Set(0), 1))  // A -> B (B constant)
    assert(!FDDiscovery.holdsLocal(ex34, Set(1), 0)) // B -> A
    assert(!FDDiscovery.holdsLocal(ex34, Set(0), 3)) // A -> D
    assert(FDDiscovery.holdsLocal(ex34, Set(0, 3), 2))
  }

  test("holdsLocal on trivial FDs") {
    assert(FDDiscovery.holdsLocal(ex34, Set(2), 2))
    assert(FDDiscovery.holdsLocal(ex34, Set(1, 2), 2))
  }

  test("discoverLocal finds A -> C on Example 3.4") {
    val fds = FDDiscovery.discoverLocal(ex34, maxLhs = 1)
    // C is constant, so the minimal FD behind A -> C is ∅ -> C.
    assert(fds.filter(_.rhs == 2) == Vector(FD(Set.empty, 2)))
  }

  test("discoverLocal reports constant columns as determined by every attribute") {
    val fds = FDDiscovery.discoverLocal(ex34, maxLhs = 1)
    // B and C are constant: ∅ -> B and ∅ -> C, which every attribute's FD
    // extends, are their only FDs.
    assert(fds.filter(f => f.rhs == 1 || f.rhs == 2) == Vector(FD(Set.empty, 1), FD(Set.empty, 2)))
    assert(fds.filter(_.lhs.isEmpty).map(_.rhs) == Vector(1, 2))
  }

  test("discoverLocal is minimal: no FD has a determining proper subset") {
    val fds = FDDiscovery.discoverLocal(ex34, maxLhs = 2)
    for (f <- fds; sub <- f.lhs.subsets() if sub.size < f.lhs.size)
      assert(!FDDiscovery.holdsLocal(ex34, sub, f.rhs), s"$f has determining subset $sub")
  }

  test("every discovered FD actually holds (maxLhs=2, Example 3.4)") {
    val fds = FDDiscovery.discoverLocal(ex34, maxLhs = 2)
    for (f <- fds) assert(FDs.violation(ex34, f).isEmpty, s"$f")
  }

  test("discoverLocal ≡ per-candidate referenceViolation discovery on the five mimics") {
    for (d <- Fig3Exp.DatasetNames) {
      val inst = Experiments.prepare(spark, d).inst
      val maxLhs = Experiments.maxLhsFor(d)
      def holds(lhs: Set[Int], rhs: Int) = TestGen.referenceViolation(inst, FD(lhs, rhs)).isEmpty
      val cols = inst.attrs.indices.toVector
      val expected = for {
        rhs <- cols
        l <- 0 to maxLhs
        lhs <- cols.filterNot(_ == rhs).combinations(l).map(_.toSet)
        if holds(lhs, rhs) && !lhs.subsets().exists(s => s != lhs && holds(s, rhs))
      } yield FD(lhs, rhs)
      assert(FDDiscovery.discoverLocal(inst, maxLhs) == expected, d)
    }
  }

  private def constant(inst: Instance, b: Int): Boolean = inst.rows.map(_(b)).distinct.size <= 1

  test("discoverLocal ≡ brute-force minimal FDs over LHS sizes 0..maxLhs, ∅ -> B exactly for constant columns (1,200 instances)") {
    var constants = 0
    for {
      seed <- 0L until 300L
      (wide, _) = TestGen.instanceWithWideFds(seed)
      inst <- Seq(wide, Instance(wide.attrs, wide.rows.flatMap(r => Vector(r, r))))
      maxLhs <- Seq(1, 2)
    } {
      def holds(lhs: Set[Int], rhs: Int) = TestGen.referenceViolation(inst, FD(lhs, rhs)).isEmpty
      val expected = for {
        rhs <- inst.attrs.indices
        lhs <- (inst.attrs.indices.toSet - rhs).subsets() if lhs.size <= maxLhs
        if holds(lhs, rhs) && !lhs.subsets().exists(s => s != lhs && holds(s, rhs))
      } yield FD(lhs, rhs)
      val fds = FDDiscovery.discoverLocal(inst, maxLhs)
      assert(fds.distinct == fds && fds.toSet == expected.toSet, s"seed $seed, maxLhs $maxLhs: $inst")
      for (b <- inst.attrs.indices) {
        assert(fds.contains(FD(Set.empty, b)) == constant(inst, b), s"seed $seed, column $b")
        if (constant(inst, b)) {
          assert(fds.filter(_.rhs == b) == Vector(FD(Set.empty, b)), s"seed $seed, column $b")
          constants += 1
        }
      }
    }
    assert(constants > 300, s"only $constants constant columns")
  }

  test("runExact gives every cell of a constant column over n rows exactly 2^-(n-1)") {
    val rng = new scala.util.Random(7)
    // An id, a constant column B and a two-valued column C, over 0 to 27 rows.
    val cases = (0 to 27).map(n => Instance(Vector("id", "B", "C"), Vector.tabulate(n)(j => Vector(j, 5, rng.nextInt(2))))) ++
      (0L until 300L).map(TestGen.instanceWithWideFds(_)._1)
    var cells = 0
    for (inst <- cases; b <- inst.attrs.indices if constant(inst, b)) {
      val res = PlaqueTest.runExact(inst, FDDiscovery.discoverLocal(inst))
      for (j <- inst.rows.indices) {
        assert(res.entropy(Pos(j, b)) == math.pow(2, -(inst.rows.size - 1)), s"$inst at ${Pos(j, b)}")
        cells += 1
      }
    }
    assert(cells > 1000, s"only $cells cells")
  }

  test("discovery on the CD example finds the genuine unary FDs") {
    val inst = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
    val fds = FDDiscovery.discoverLocal(inst, maxLhs = 1)
    val id = inst.attrIndex("cd_id")
    for (rhs <- Seq("album", "band", "byear", "ryear"))
      assert(fds.contains(FD(Set(id), inst.attrIndex(rhs))), s"cd_id -> $rhs missing")
    assert(fds.contains(FD(Set(inst.attrIndex("band")), inst.attrIndex("byear"))))
    assert(fds.contains(FD(Set(inst.attrIndex("byear")), inst.attrIndex("band"))))
  }

  test("discovery on the CD example finds (cd_id, track) -> title at level 2") {
    val inst = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
    val fds = FDDiscovery.discoverLocal(inst, maxLhs = 2)
    val f = FD(Set(inst.attrIndex("cd_id"), inst.attrIndex("track")), inst.attrIndex("title"))
    assert(fds.contains(f))
  }

  test("level-2 candidates exclude supersets of level-1 FDs (minimality)") {
    val inst = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
    val fds = FDDiscovery.discoverLocal(inst, maxLhs = 2)
    val id = inst.attrIndex("cd_id")
    val album = inst.attrIndex("album")
    // cd_id -> album holds, so {cd_id, X} -> album must not be reported.
    assert(!fds.exists(f => f.rhs == album && f.lhs.size == 2 && f.lhs.contains(id)))
  }

  test("discover returns the same FDs as discoverLocal on the encoded instance") {
    val df = Datasets.cdCollection(spark)
    val (inst, fds) = FDDiscovery.discover(df, "id", maxLhs = 1)
    assert(fds == FDDiscovery.discoverLocal(inst, maxLhs = 1))
  }

  test("byNames renders FDs with attribute names") {
    val fds = Vector(FD(Set(0), 2))
    assert(FDDiscovery.byNames(ex34, fds) == Vector((Seq("A"), "C")))
  }

  // --- distributed paths ----------------------------------------------------

  private lazy val satDf = Datasets.satellites(spark).cache()

  test("holdsSpark agrees with holdsLocal on the satellites mimic") {
    val inst = Instance.fromDataFrame(satDf, "id")
    val cases = Seq(
      (Seq("mean_radius"), "planet"),
      (Seq("planet"), "mean_radius"),
      (Seq("discovered_by"), "notes"),
      (Seq("notes"), "discovered_by"),
      (Seq("name"), "planet"),
      (Seq("planet", "discovered_by"), "mean_radius"),
    )
    for ((lhs, rhs) <- cases) {
      val local = FDDiscovery.holdsLocal(inst, lhs.map(inst.attrIndex).toSet, inst.attrIndex(rhs))
      val dist = FDDiscovery.holdsSpark(satDf, lhs, rhs)
      assert(local == dist, s"$lhs -> $rhs: local=$local spark=$dist")
    }
  }

  test("holdsSpark agrees with holdsLocal on empty-LHS FDs (echocardiogram)") {
    val df = Datasets.echocardiogram(spark)
    val inst = Instance.fromDataFrame(df, "id")
    for ((rhs, holds) <- Seq("name" -> true, "group" -> false)) {
      assert(FDDiscovery.holdsLocal(inst, Set.empty, inst.attrIndex(rhs)) == holds, s"local ∅ -> $rhs")
      assert(FDDiscovery.holdsSpark(df, Nil, rhs) == holds, s"spark ∅ -> $rhs")
    }
  }

  test("holdsSpark agrees with DuckDB's max(count(DISTINCT r)) <= 1 on null LHS and RHS values") {
    val s = spark
    import s.implicits._
    val df = Seq(
      (Some(1), Some("x"), Some("a")),
      (Some(1), Some("x"), None),
      (None, Some("y"), Some("b")),
      (None, Some("y"), Some("b")),
      (Some(2), None, None),
      (Some(2), None, None),
      (Some(3), Some("y"), Some("c")),
    ).toDF("k1", "k2", "v")
    assertHoldsLikeDuckDb(df, Seq(
      Seq("k1") -> "v", Seq("k2") -> "v", Seq("v") -> "k1", Seq("v") -> "k2",
      Seq("k1") -> "k2", Seq("k2") -> "k1", Seq("k1", "k2") -> "v",
    ))
  }

  test("holdsSpark agrees with a DuckDB group-count check") {
    assertHoldsLikeDuckDb(satDf, Seq(
      Seq("mean_radius") -> "planet",
      Seq("planet") -> "mean_radius",
      Seq("discovered_by") -> "notes",
      Seq("notes") -> "discovered_by",
      Seq("name") -> "planet",
      Seq("planet", "discovered_by") -> "mean_radius",
    ))
  }

  /** `holdsSpark` on each of `cases`, of which some hold and some fail,
    * equals DuckDB's `max(count(DISTINCT rhs)) <= 1` over the LHS groups.
    */
  private def assertHoldsLikeDuckDb(df: DataFrame, cases: Seq[(Seq[String], String)]): Unit = {
    val s = spark
    import s.implicits._
    def name(lhs: Seq[String], rhs: String) = s"${lhs.mkString(", ")} -> $rhs"
    val got = cases.map { case (lhs, rhs) => (name(lhs, rhs), FDDiscovery.holdsSpark(df, lhs, rhs)) }
    assert(got.map(_._2).distinct.size == 2, got) // both outcomes occur
    Oracle.assertEquivalent(
      got.toDF("fd", "holds"),
      cases.map { case (lhs, rhs) =>
        s"SELECT '${name(lhs, rhs)}' AS fd, max(d) <= 1 AS holds " +
          s"FROM (SELECT count(DISTINCT $rhs) AS d FROM t GROUP BY ${lhs.mkString(", ")})"
      }.mkString(" UNION ALL "),
      "t" -> df,
    )
  }
}
