package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.{Oracle, SparkSpec}
import repro.data.Datasets

class PlaqueTestSpec extends AnyFunSuite with SparkSpec {

  private val ex34 = Instance(
    Vector("A", "B", "C", "D"),
    Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
  )
  private val fds = Vector(FD(Set(0), 2))

  test("runExact reproduces the Example 3.4 matrix") {
    val res = PlaqueTest.runExact(ex34, fds)
    assert(res.entropies == Vector(
      Vector(1.0, 1.0, 0.875, 1.0),
      Vector(1.0, 1.0, 1.0, 1.0),
      Vector(1.0, 1.0, 0.875, 1.0),
    ))
    assert(ex34.positions.forall(p => res.entropy(p) == res.entropies(p.row)(p.col)))
    // A column outside the instance must not alias a cell of the next or previous row.
    for (p <- Seq(Pos(0, 4), Pos(1, -1))) assertThrows[IllegalArgumentException](res.entropy(p))
  }

  test("runExact reports non-unique positions") {
    val res = PlaqueTest.runExact(ex34, fds)
    assert(res.nonUnique == Set(Pos(0, 2), Pos(2, 2)))
  }

  test("run (MC on driver threads) approximates the exact matrix") {
    val res = PlaqueTest.run(spark, ex34, fds, 100000)
    assert(res.entropies(1) == Vector(1.0, 1.0, 1.0, 1.0))
    assert(math.abs(res.entropies(0)(2) - 0.875) < 0.015)
    assert(math.abs(res.entropies(2)(2) - 0.875) < 0.015)
  }

  test("minEntropy and fractionOnes") {
    val res = PlaqueTest.runExact(ex34, fds)
    assert(res.minEntropy == 0.875)
    assert(math.abs(res.fractionOnes - 10.0 / 12.0) < 1e-12)
  }

  test("plaqueColumns names exactly the colored attributes") {
    val res = PlaqueTest.runExact(ex34, fds)
    assert(res.plaqueColumns == Vector("C"))
  }

  test("zeroColumns is empty when no column is all-zero") {
    assert(PlaqueTest.runExact(ex34, fds).zeroColumns().isEmpty)
  }

  test("zeroColumns finds an all-redundant column") {
    // Constant column B (the echocardiogram "name" pattern): the empty-LHS FD
    // gives every other row as a witness, so entropies collapse to ~2^-11.
    val inst = Instance(
      Vector("A", "B"),
      Vector.tabulate(12)(j => Vector(j % 3, 9)),
    )
    val res = PlaqueTest.runExact(inst, Vector(FD(Set.empty[Int], 1)))
    assert(res.zeroColumns(tol = 0.1) == Vector("B"))
    assert(res.entropies(0)(1) < 0.001)
  }

  test("on a 0-row instance every statistic reads as on a plaque-free one") {
    val empty = Instance(Vector("A", "B", "C"), Vector.empty)
    for (res <- Seq(PlaqueTest.run(spark, empty, Vector(FD(Set(0), 1)), 1000), PlaqueTest.runExact(empty, Vector(FD(Set.empty, 2))))) {
      assert(res.cells == 0 && res.classes == 0 && res.nonUnique.isEmpty)
      assert(res.fractionOnes == 1.0 && res.minEntropy == 1.0 && res.cellsBelowOne == 0)
      assert(res.zeroColumns().isEmpty && res.plaqueColumns.isEmpty)
      assert(res.histogram().forall(_._2 == 0))
    }
  }

  test("histogram buckets cover all cells") {
    val res = PlaqueTest.runExact(ex34, fds)
    val h = res.histogram(0.05)
    assert(h.map(_._2).sum == 12)
    assert(math.abs(h.last._1 - 0.95) < 1e-9 && h.last._2 == 10) // the ten 1.0 cells
    assert(h(17)._2 == 2) // bucket [0.85, 0.90) holds the two 0.875 cells
  }

  test("histogram respects custom bucket widths") {
    val res = PlaqueTest.runExact(ex34, fds)
    val h = res.histogram(0.5)
    assert(h == Vector((0.0, 0), (0.5, 12)))
  }

  test("histogram rejects a bucket width outside (0, 1] before allocating") {
    val res = PlaqueTest.runExact(ex34, fds)
    for (width <- Seq(0.0, -0.05, 1.5, Double.NaN)) {
      val e = intercept[IllegalArgumentException](res.histogram(width))
      assert(e.getMessage.contains(s"width $width "), e.getMessage)
    }
    assert(res.histogram(1.0) == Vector((0.0, 12)))
  }

  test("toDF round-trips the matrix and joins with SQL") {
    val res = PlaqueTest.runExact(ex34, fds)
    val df = res.toDF(spark)
    assert(df.count() == 12)
    val below = df.where("entropy < 1.0").collect()
    assert(below.map(r => (r.getLong(0), r.getString(1))).toSet == Set((0L, "C"), (2L, "C")))
  }

  test("toDF aggregate matches the DuckDB oracle") {
    val res = PlaqueTest.runExact(ex34, fds)
    val df = res.toDF(spark)
    val agg = df.groupBy("attr").agg(
      org.apache.spark.sql.functions.expr("cast(count(case when entropy < 1.0 then 1 end) as string) as n_plaque"))
    Oracle.assertEquivalent(
      agg,
      "SELECT attr, CAST(COUNT(CASE WHEN CAST(entropy AS DOUBLE) < 1.0 THEN 1 END) AS VARCHAR) AS n_plaque " +
        "FROM ent GROUP BY attr",
      "ent" -> df,
    )
  }

  test("fromDataFrame end-to-end on the CD example") {
    val inst = Instance.fromDataFrame(Datasets.cdCollection(spark), "id")
    val res = PlaqueTest.run(spark, inst, FDs.byName(inst.attrs, Datasets.cdGenuineFds), 50000)
    // Fig. 1b: Album entropy of the first tuple ≈ 25/32.
    val albumIdx = res.inst.attrIndex("album")
    assert(math.abs(res.entropies(0)(albumIdx) - 25.0 / 32.0) < 0.02)
    val trackIdx = res.inst.attrIndex("track")
    assert(res.entropies.forall(_(trackIdx) == 1.0))
  }

  test("MC run and exact run agree on non-unique position sets") {
    val mc = PlaqueTest.run(spark, ex34, fds, 1000)
    val exact = PlaqueTest.runExact(ex34, fds)
    assert(mc.nonUnique == exact.nonUnique)
  }

  test("closure is applied inside run (transitive plaque)") {
    // A -> B, B -> C: cell (j,C) must pick up clauses from the derived A -> C.
    val inst = Instance(
      Vector("A", "B", "C"),
      Vector(Vector(1, 4, 7), Vector(1, 4, 7), Vector(2, 5, 7)),
    )
    val res = PlaqueTest.runExact(inst, Vector(FD(Set(0), 1), FD(Set(1), 2)))
    // (0,C): clauses from B->C (witness row 1) and derived A->C.
    assert(res.entropies(0)(2) < 1.0)
    assert(res.nonUnique.contains(Pos(0, 2)))
  }

  // An FD that does not hold: rows 0 and 2 agree on A but differ on D.
  private val violated = Vector(FD(Set(0), 2), FD(Set(0), 3))

  private def assertRejected(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage.contains("A -> D") && e.getMessage.contains("rows 0 and 2"), e.getMessage)
  }

  test("run rejects an FD that does not hold, naming it and two rows") {
    assertRejected(PlaqueTest.run(spark, ex34, violated, 1000))
  }

  test("runExact rejects an FD that does not hold, naming it and two rows") {
    assertRejected(PlaqueTest.runExact(ex34, violated))
  }

  // Column indices outside Example 3.4's [0, 4), the trivial 9 -> 9 included,
  // each listed after the valid A -> C.
  for ((bad, named) <- Seq(FD(Set(7), 0) -> "{7} -> 0", FD(Set(0), 9) -> "{0} -> 9",
                           FD(Set(-1), 2) -> "{-1} -> 2", FD(Set(9), 9) -> "{9} -> 9")) {
    test(s"every entry point rejects FD $named on an arity-4 instance, naming its indices and the arity") {
      val fdsWithBad = fds :+ bad
      val entries: Seq[(String, () => Any)] = Seq(
        "run" -> (() => PlaqueTest.run(spark, ex34, fdsWithBad, 1000)),
        "runExact" -> (() => PlaqueTest.runExact(ex34, fdsWithBad)),
        "naive" -> (() => ExactEntropy.naive(ex34, fdsWithBad)),
        "optimized" -> (() => ExactEntropy.optimized(ex34, fdsWithBad)),
      )
      for ((entry, call) <- entries) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"FD $named ") && e.getMessage.contains("[0, 4)") &&
          e.getMessage.contains("arity-4"), s"$entry: ${e.getMessage}")
      }
    }
  }

  // A -> B with 28 rows sharing one A value: each B cell has 27 witness rows,
  // so its clause-cell union is (j, A) plus (j', A) and (j', B) for each.
  private val crowded = Instance(Vector("A", "B"), Vector.fill(28)(Vector(1, 2)))

  test("runExact gives each B cell of 28 equal rows under A -> B exactly ½ + ½·(¾)^27") {
    val res = PlaqueTest.runExact(crowded, Vector(FD(Set(0), 1)))
    for (j <- 0 until 28) assert(res.entropy(Pos(j, 1)) == 0.5 + 0.5 * Iterator.fill(27)(0.75).product, s"row $j")
  }

  /** Two equal rows of zeros over `arity` columns: every FD holds, and no LHS is a key. */
  private def zeros(arity: Int) = Instance(Vector.tabulate(arity)(k => s"A$k"), Vector.fill(2)(Vector.fill(arity)(0)))

  // {A0, …, A26} -> A27: the LHS puts 27 cells of p's own row in clauses.
  private val wideLhs = (zeros(28), Vector(FD((0 until 27).toSet, 27)))

  private def assertOversized(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage == "requirement failed: position Pos(0,27) has 27 LHS cells in its own row, " +
      "more than the 26 exact evaluation allows", e.getMessage)
  }

  test("runExact names the position and union size of a refused clause set") {
    assertOversized(PlaqueTest.runExact(wideLhs._1, wideLhs._2))
  }

  test("clauseMatrix names the position and union size of a refused clause set") {
    assertOversized(ExactEntropy.clauseMatrix(wideLhs._1, wideLhs._2))
  }

  // The first 64 or 65 pairs of A0, …, A11 determine A12: as many closed FDs on one RHS.
  private def pairs(n: Int) = (0 until 12).combinations(2).take(n).map(c => FD(c.toSet, 12)).toVector

  test("runExact takes 64 closed FDs on one RHS, equal to the subset-at-a-time reference, and refuses 65") {
    val res = PlaqueTest.runExact(zeros(13), pairs(64))
    assert(res.closedFds.size == 64)
    val want = TestGen.referenceViaClauses(TestGen.referenceClauses(zeros(13), res.closedFds, Pos(0, 12)))
    assert(res.entropy(Pos(0, 12)) == want && res.entropy(Pos(1, 12)) == want)
    val e = intercept[IllegalArgumentException](PlaqueTest.runExact(zeros(13), pairs(65)))
    assert(e.getMessage == "requirement failed: position Pos(0,12) has 65 closed FDs on its RHS, " +
      "more than the 64 exact evaluation allows", e.getMessage)
  }
}
