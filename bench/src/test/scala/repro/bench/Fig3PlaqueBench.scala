package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.Fig3Exp
import repro.viz.Heatmap

/** Reproduces **Figure 3 / RQ1**: plaque tests on the five evaluation
  * datasets (synthetic mimics — DESIGN.md §3) and the paper's per-dataset
  * qualitative findings:
  *
  *  - satellites: plaque concentrated in "Planet" plus a few "Notes" cells;
  *  - adult: only education/education-num, pairwise equal per row (the
  *    normalization opportunity);
  *  - echocardiogram: 11 of 13 columns touched, the anonymised name column
  *    at entropy ≈ 0;
  *  - ncvoter: 15 of 19 columns touched, the constant state column at 0;
  *  - iris: only the class column.
  */
class Fig3PlaqueBench extends AnyFunSuite with SparkSpec {

  private lazy val summaries = {
    val ss = Fig3Exp.run(spark, iterations = 100000)
    println("\n=== Figure 3 / RQ1: plaque tests on the five datasets ===")
    println(Fig3Exp.format(ss))
    for (s <- ss.take(1)) { // one heat map as a visual sample
      println(s"\n--- ${s.dataset} heat map (rows 1-20) ---")
      println(Heatmap.render(s.result).split("\n").take(21).mkString("\n"))
    }
    ss
  }

  private def sum(name: String) = summaries.find(_.dataset == name).get

  test("RQ1: all five datasets are analyzed at the paper's row counts") {
    assert(summaries.map(_.dataset) == Fig3Exp.DatasetNames)
    assert(sum("satellites").result.inst.nRows == 150 && sum("echocardiogram").result.inst.nRows == 132)
  }

  test("RQ1 satellites: plaque only in planet and notes, concentrated in planet") {
    val res = sum("satellites").result
    assert(res.plaqueColumns.toSet == Set("planet", "notes"), s"got ${res.plaqueColumns}")
    val planetIdx = res.inst.attrIndex("planet")
    val notesIdx = res.inst.attrIndex("notes")
    val planetCells = res.entropies.count(_(planetIdx) < 1.0)
    val notesCells = res.entropies.count(_(notesIdx) < 1.0)
    assert(planetCells > 100 && notesCells <= 6, s"planet=$planetCells notes=$notesCells")
  }

  test("RQ1 satellites: minimum entropy sits in the radius-3.0 Saturn group") {
    val res = sum("satellites").result
    val planetIdx = res.inst.attrIndex("planet")
    val minRow = (0 until res.inst.nRows).minBy(j => res.entropies(j)(planetIdx))
    assert((6 to 13).contains(minRow), s"min at row $minRow")
    assert(res.minEntropy > 0.5 && res.minEntropy < 0.65)
  }

  test("RQ1 adult: plaque exactly in education and education_num") {
    assert(sum("adult").result.plaqueColumns.toSet == Set("education", "education_num"))
  }

  test("RQ1 adult: both columns share the same entropy in every row (cyclic FDs)") {
    val res = sum("adult").result
    val e = res.inst.attrIndex("education")
    val n = res.inst.attrIndex("education_num")
    for (j <- 0 until res.inst.nRows)
      assert(math.abs(res.entropies(j)(e) - res.entropies(j)(n)) < 0.03,
        s"row $j: ${res.entropies(j)(e)} vs ${res.entropies(j)(n)}")
  }

  test("RQ1 echocardiogram: 11 of 13 columns carry plaque") {
    assert(sum("echocardiogram").result.plaqueColumns.size == 11)
  }

  test("RQ1 echocardiogram: the anonymised name column has entropy ~0 everywhere") {
    val res = sum("echocardiogram").result
    assert(res.zeroColumns().contains("name"), s"zero columns: ${res.zeroColumns()}")
    val nameIdx = res.inst.attrIndex("name")
    assert(res.entropies.forall(_(nameIdx) < 0.05))
  }

  test("RQ1 ncvoter: 15 of 19 columns carry plaque") {
    assert(sum("ncvoter").result.plaqueColumns.size == 15)
  }

  test("RQ1 ncvoter: the single-state column has no information content") {
    assert(sum("ncvoter").result.zeroColumns().contains("state"))
  }

  test("RQ1 iris: only the class column carries plaque") {
    assert(sum("iris").result.plaqueColumns == Vector("class"))
  }

  test("RQ1 iris: every discovered FD has class on the RHS") {
    val prep = repro.exp.Experiments.prepare(spark, "iris")
    val classIdx = prep.inst.attrIndex("class")
    assert(prep.fds.nonEmpty && prep.fds.forall(_.rhs == classIdx))
  }

  test("RQ1: the plaque test is selective — most cells stay white everywhere") {
    for (s <- summaries if s.dataset != "echocardiogram") {
      val colored = s.result.cellsBelowOne.toDouble / s.result.cells
      assert(colored < 0.35, s"${s.dataset}: $colored colored")
    }
  }

  test("RQ1: FD counts per dataset are recorded (Metanome-substitute scale)") {
    // Paper (Metanome, all LHS sizes): 35 / 78 / 538 / 758 / 4.
    // Ours (level-wise, LHS ≤ 2; iris unary): recorded in EXPERIMENTS.md.
    for (s <- summaries) assert(s.nFds > 0, s.dataset)
  }
}
