package repro.core

import scala.concurrent.duration._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.{Experiments, Fig3Exp}

class MonteCarloSpec extends AnyFunSuite with SparkSpec {

  test("Example 3.7: eps=delta=0.001 requires ≥ 1.52e7 iterations") {
    val n = MonteCarlo.requiredIterations(0.001, 0.001)
    assert(n >= 15200000L && n <= 15300000L, s"got $n")
  }

  test("Example 3.7: eps=0.01 lowers the iteration count by a factor 100") {
    val n1 = MonteCarlo.requiredIterations(0.001, 0.001)
    val n2 = MonteCarlo.requiredIterations(0.01, 0.001)
    assert(math.abs(n1.toDouble / n2 - 100.0) < 0.01)
  }

  test("Figure 2 spot value: eps=0.04, 99.9% confidence needs ~10000 iterations") {
    val n = MonteCarlo.requiredIterations(0.04, 0.001)
    assert(n >= 9000L && n <= 10500L, s"got $n")
  }

  test("paper RQ1 setting: 100k iterations give accuracy ~0.01 at 99% confidence") {
    assert(MonteCarlo.requiredIterations(0.0103, 0.01) <= 100000L)
    assert(MonteCarlo.accuracy(100000L, 0.01) < 0.0107)
  }

  test("requiredIterations rejects non-positive arguments") {
    assertThrows[IllegalArgumentException](MonteCarlo.requiredIterations(0.0, 0.1))
    assertThrows[IllegalArgumentException](MonteCarlo.requiredIterations(0.1, 0.0))
    // A confidence 1 − δ needs 0 < δ < 1: δ = 3 gave −81 iterations, and accuracy NaN.
    for (delta <- Seq(1.0, 3.0)) {
      assertThrows[IllegalArgumentException](MonteCarlo.requiredIterations(0.1, delta))
      assertThrows[IllegalArgumentException](MonteCarlo.accuracy(100, delta))
    }
    assertThrows[IllegalArgumentException](MonteCarlo.accuracy(100, 0.0))
    assert(MonteCarlo.requiredIterations(0.1, 0.1) > 0 && MonteCarlo.accuracy(100, 0.1) > 0)
  }

  test("requiredIterations is monotone in eps and delta") {
    assert(MonteCarlo.requiredIterations(0.01, 0.01) > MonteCarlo.requiredIterations(0.02, 0.01))
    assert(MonteCarlo.requiredIterations(0.01, 0.001) > MonteCarlo.requiredIterations(0.01, 0.01))
  }

  test("mask packs clause cells into ≤64-bit words") {
    val cls = Vector(Set(Pos(0, 0), Pos(1, 0)), Set(Pos(1, 0), Pos(2, 0)))
    val mc = MonteCarlo.mask(cls)
    assert(mc.nVars == 3)
    assert(mc.vars.map(_.toSeq).toSeq == Seq(Seq(0, 1), Seq(1, 2)))
  }

  test("mask handles >64 distinct cells") {
    val cls = Vector.tabulate(70)(i => Set(Pos(i, 0)))
    val mc = MonteCarlo.mask(cls)
    assert(mc.nVars == 70)
    assert(mc.vars.map(_.toSeq).toSeq == (0 until 70).map(Seq(_)))
  }

  test("mask numbers cells first-seen, each clause's cells in ascending (row, col) order") {
    // The 5-cell clause is a HashSet, whose iteration order is not (row, col) order.
    val five = Set(Pos(3, 1), Pos(0, 2), Pos(3, 0), Pos(0, 0), Pos(3, 2))
    val mc = MonteCarlo.mask(Vector(Set(Pos(3, 0)), five, Set(Pos(3, 2)), Set(Pos(0, 2), Pos(3, 1))))
    assert(mc.nVars == 5)
    assert(mc.vars.map(_.toSeq).toSeq == Seq(Seq(0), Seq(0, 1, 2, 3, 4), Seq(4), Seq(2, 3)))
  }

  test("mask orders cells as (row, col) with columns 64 and up and rows 2^16 and up") {
    // Neither column-first order nor an Int key `row << 16 | col` gives this numbering.
    val wide = Set(Pos(70000, 0), Pos(1, 100), Pos(1, 65), Pos(65536, 70), Pos(65535, 200))
    val mc = MonteCarlo.mask(Vector(wide, Set(Pos(65536, 70), Pos(0, 99))))
    assert(mc.nVars == 6)
    assert(mc.vars.map(_.toSeq).toSeq == Seq(Seq(0, 1, 2, 3, 4), Seq(3, 5)))
  }

  test("estimate rejects a non-positive iteration count") {
    val e = intercept[IllegalArgumentException](MonteCarlo.estimate(MonteCarlo.mask(Vector.empty), 0, 1))
    assert(e.getMessage.contains("got 0"))
  }

  test("accuracy rejects a non-positive iteration count") {
    val e = intercept[IllegalArgumentException](MonteCarlo.accuracy(-5, 0.01))
    assert(e.getMessage.contains("got -5"))
  }

  test("estimate of an empty clause set is exactly 1") {
    assert(MonteCarlo.estimate(MonteCarlo.mask(Vector.empty), 100, 1) == 1.0)
  }

  test("estimate of a single 1-cell clause converges to 1/2") {
    val mc = MonteCarlo.mask(Vector(Set(Pos(0, 0))))
    val e = MonteCarlo.estimate(mc, 200000, 7)
    assert(math.abs(e - 0.5) < 0.01, s"got $e")
  }

  test("estimate of a single 3-cell clause converges to 7/8") {
    val mc = MonteCarlo.mask(Vector(Set(Pos(0, 0), Pos(1, 0), Pos(1, 1))))
    val e = MonteCarlo.estimate(mc, 200000, 11)
    assert(math.abs(e - 0.875) < 0.01, s"got $e")
  }

  test("estimate is deterministic in the seed") {
    val mc = MonteCarlo.mask(Vector(Set(Pos(0, 0), Pos(1, 0))))
    assert(MonteCarlo.estimate(mc, 10000, 5) == MonteCarlo.estimate(mc, 10000, 5))
    assert(MonteCarlo.estimate(mc, 10000, 5) != MonteCarlo.estimate(mc, 10000, 6))
  }

  test("estimate with >64 variables converges to the analytic value") {
    // 70 disjoint single-cell clauses: P = (1/2)^70 ≈ 0 — all-miss expected,
    // but 70 clauses of two cells each: P = (3/4)^70.
    val cls = Vector.tabulate(70)(i => Set(Pos(i, 0), Pos(i, 1)))
    val expected = math.pow(0.75, 70)
    val e = MonteCarlo.estimate(MonteCarlo.mask(cls), 100000, 3)
    assert(math.abs(e - expected) < 0.005, s"got $e, expected $expected")
  }

  // Convergence against the exact clause-based value on random instances.
  for (seed <- 500 until 515) {
    test(s"MC converges to the exact entropy (random instance, seed=$seed)") {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      for (p <- inst.positions.take(6)) {
        val cls = TestGen.referenceClauses(inst, closed, p)
        val exact = TestGen.referenceViaClauses(cls)
        val est = MonteCarlo.estimate(MonteCarlo.mask(cls), 100000, seed)
        assert(math.abs(est - exact) < 0.015, s"est=$est exact=$exact at $p")
      }
    }
  }

  test("matrixLocal gives 1.0 exactly on unique positions") {
    val ex34 = Instance(
      Vector("A", "B", "C", "D"),
      Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
    )
    val mat = PlaqueTest.run(spark, ex34, Vector(FD(Set(0), 2)), 20000)
    for (p <- ex34.positions if p != Pos(0, 2) && p != Pos(2, 2))
      assert(mat.entropy(p) == 1.0, s"at $p")
    assert(math.abs(mat.entropy(Pos(0, 2)) - 0.875) < 0.02)
  }

  test("matrixLocal rejects an FD that does not hold, naming it and two rows") {
    val ex34 = Instance(
      Vector("A", "B", "C", "D"),
      Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
    )
    val e = intercept[IllegalArgumentException](PlaqueTest.run(spark, ex34, Vector(FD(Set(0), 3)), 1000))
    assert(e.getMessage.contains("A -> D") && e.getMessage.contains("rows 0 and 2"), e.getMessage)
  }

  // --- estimateSpark: mask, then the block runner ---------------------------

  test("estimateSpark matches the exact value within MC accuracy") {
    val ex34 = Instance(
      Vector("A", "B", "C", "D"),
      Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
    )
    val closed = FDs.closure(Vector(FD(Set(0), 2)))
    val clauses = Map(
      Pos(0, 2) -> (TestGen.referenceClauses(ex34, closed, Pos(0, 2)): Seq[Set[Pos]]),
      Pos(2, 2) -> (TestGen.referenceClauses(ex34, closed, Pos(2, 2)): Seq[Set[Pos]]),
    )
    val est = MonteCarlo.estimateSpark(spark, clauses, 100000)
    assert(est.keySet == clauses.keySet)
    for ((p, e) <- est) assert(math.abs(e - 0.875) < 0.015, s"at $p got $e")
  }

  test("estimateSpark on an empty position map is empty") {
    assert(MonteCarlo.estimateSpark(spark, Map.empty, 1000).isEmpty)
  }

  test("estimateSpark rejects a non-positive iteration count") {
    val clauses = Map(Pos(0, 0) -> (Vector(Set(Pos(1, 1))): Seq[Set[Pos]]))
    val e = intercept[IllegalArgumentException](MonteCarlo.estimateSpark(spark, clauses, 0))
    assert(e.getMessage.contains("got 0"))
  }

  test("estimateSpark splits iterations into blocks without losing any") {
    val clauses = Map(Pos(0, 0) -> (Vector(Set(Pos(1, 1))): Seq[Set[Pos]]))
    // 7 full blocks + remainder: estimate should still be ~0.5.
    val est = MonteCarlo.estimateSpark(spark, clauses, 180001)
    assert(math.abs(est(Pos(0, 0)) - 0.5) < 0.02, s"got $est")
  }

  test("estimateSpark agrees with the local sampler on random instances") {
    for (seed <- 600 until 605) {
      val (inst, fds) = TestGen.instanceWithFds(seed)
      val closed = FDs.closure(fds)
      val all = Clauses.forAllPositions(inst, closed)
      if (all.nonEmpty) {
        val spark_ = MonteCarlo.estimateSpark(spark, all, 50000, seed)
        for ((p, e) <- spark_) {
          val exact = TestGen.referenceViaClauses(all(p))
          assert(math.abs(e - exact) < 0.025, s"seed=$seed p=$p spark=$e exact=$exact")
        }
      }
    }
  }

  // --- Bit-sliced sampler and the block seeds shared by every thread count --

  test("estimate counts exactly n samples for batch-boundary iteration counts") {
    val mc = MonteCarlo.mask(Vector(Set(Pos(0, 0), Pos(1, 0)), Set(Pos(2, 1))))
    for (n <- Seq(1L, 63L, 64L, 65L, 127L, 180001L); s <- 0L until 5L) {
      val h = MonteCarlo.estimate(mc, n, s) * n
      assert(math.abs(h - math.round(h)) < 1e-6 && h >= 0 && h <= n, s"n=$n seed=$s hits=$h")
    }
  }

  test("estimate with one iteration counts only one lane: mean over 2,000 seeds ≈ 1/2") {
    val mc = MonteCarlo.mask(Vector(Set(Pos(0, 0))))
    val mean = (0L until 2000L).map(s => MonteCarlo.estimate(mc, 1, s)).sum / 2000
    assert(math.abs(mean - 0.5) < 0.05, s"got $mean")
  }

  test("a clause across the word boundary (cells 63 and 64) converges to 3/4") {
    val mc = MonteCarlo.MaskedClauses(65, Array(Array(63, 64)))
    val e = MonteCarlo.estimate(mc, 200000, 9)
    assert(math.abs(e - 0.75) < 0.01, s"got $e")
  }

  test("run ≡ matrixLocal exactly on the satellites mimic and random instances (180,001 iterations)") {
    val sat = Experiments.prepare(spark, "satellites")
    val cases = (sat.inst, sat.fds, 1L) +: (600 until 605).map { seed =>
      val (inst, fds) = TestGen.instanceWithFds(seed)
      (inst, fds, seed.toLong)
    }
    for ((inst, fds, seed) <- cases) {
      val run = PlaqueTest.run(spark, inst, fds, 180001, seed)
      val local = PlaqueTest.pipeline(inst, fds, 180001)(reps => MonteCarlo.sample(reps.map(r => r.pos -> r.clauses), 180001, seed, 1))
      for (p <- inst.positions) assert(run.entropy(p) == local.entropy(p), s"seed=$seed p=$p")
    }
  }

  test("estimateSpark(forAllPositions) ≡ run ≡ matrixLocal exactly on the five mimics (20,000 iterations)") {
    for (d <- Fig3Exp.DatasetNames) {
      val prep = Experiments.prepare(spark, d)
      val run = PlaqueTest.run(spark, prep.inst, prep.fds, 20000, 42)
      val replica = MonteCarlo.estimateSpark(spark, Clauses.forAllPositions(prep.inst, FDs.closure(prep.fds)), 20000, 42)
      val local = PlaqueTest.pipeline(prep.inst, prep.fds, 20000)(reps => MonteCarlo.sample(reps.map(r => r.pos -> r.clauses), 20000, 42, 1))
      assert(replica.keySet == run.nonUnique && run.nonUnique.nonEmpty, d)
      for (p <- prep.inst.positions) {
        assert(run.entropy(p) == replica.getOrElse(p, 1.0), s"$d at $p")
        assert(run.entropy(p) == local.entropy(p), s"$d at $p")
      }
    }
  }

  test("run at 100,000 iterations lies within the Thm. 3.6 accuracy (δ = 1e-6) of runExact on every cell of the five mimics") {
    val eps = MonteCarlo.accuracy(100000, 1e-6)
    for (d <- Fig3Exp.DatasetNames) {
      val prep = Experiments.prepare(spark, d)
      val exact = PlaqueTest.runExact(prep.inst, prep.fds)
      val mc = PlaqueTest.run(spark, prep.inst, prep.fds, 100000)
      assert(mc.classOf.sameElements(exact.classOf) && exact.classes > 0, d)
      for (p <- prep.inst.positions)
        assert(math.abs(mc.entropy(p) - exact.entropy(p)) <= eps, s"$d at $p: run ${mc.entropy(p)}, runExact ${exact.entropy(p)}")
    }
  }

  test("run and estimateSpark start no Spark job") {
    val sat = Experiments.prepare(spark, "satellites")
    val clauses = Clauses.forAllPositions(sat.inst, FDs.closure(sat.fds)).map { case (p, c) => p -> (c: Seq[Set[Pos]]) }
    val sentinel = "mc-no-job-sentinel"
    var groups = Vector.empty[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        groups :+= Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      PlaqueTest.run(spark, sat.inst, sat.fds, 100000, 3)
      MonteCarlo.estimateSpark(spark, clauses, 100000, 3)
      // Listener events arrive in order: once the sentinel job is seen, so is every earlier job.
      sc.setJobGroup(sentinel, "sentinel")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30000000000L
      while (!listener.synchronized(groups.contains(sentinel)) && System.nanoTime() < deadline) Thread.sleep(10)
    } finally sc.removeSparkListener(listener)
    assert(listener.synchronized(groups) == Vector(sentinel))
  }

  // --- The block runner -----------------------------------------------------

  private def samplerThreads(): Iterable[Thread] =
    Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("plaque-mc-"))

  test("the flat 3-cell kernel counts the hits of referenceHits (2,000 random clause sets)") {
    val rng = new scala.util.Random(17)
    var lengths = Set.empty[Int]
    for (i <- 0 until 2000) {
      val nVars = 1 + rng.nextInt(12)
      // Clause lengths 0–7, an empty clause rarely; cells drawn with repeats across clauses.
      val vars = Array.fill(rng.nextInt(10)) {
        val n = if (rng.nextInt(40) == 0) 0 else 1 + rng.nextInt(7)
        rng.shuffle((0 until nVars).toVector).take(n).sorted.toArray
      }
      lengths ++= vars.map(_.length)
      val mc = MonteCarlo.MaskedClauses(nVars, vars)
      val iters = 1L + rng.nextInt(5000)
      val want = TestGen.referenceHits(mc, iters, new java.util.SplittableRandom(i)).toDouble / iters
      assert(MonteCarlo.estimate(mc, iters, i) == want, s"case $i: ${vars.map(_.mkString(",")).mkString(" | ")}, $iters")
    }
    assert(lengths == (0 to 7).toSet, lengths)
  }

  test("the random-access word mix64(s + (k + 1) · Gamma) is nextLong k of new SplittableRandom(s) (k < 10,000, 300 seeds)") {
    val rng = new scala.util.Random(23)
    val seeds = Seq(0L, -1L, 1L, Long.MinValue, Long.MaxValue, MonteCarlo.Gamma, -MonteCarlo.Gamma) ++ Seq.fill(293)(rng.nextLong())
    for (s <- seeds) {
      val jdk = new java.util.SplittableRandom(s)
      val k = (0 until 10000).indexWhere(k => MonteCarlo.mix64(s + (k + 1) * MonteCarlo.Gamma) != jdk.nextLong())
      assert(k == -1, s"seed $s: word $k differs")
    }
  }

  test("the block runner gives the same hits for 1, 2, 3 and 8 workers") {
    val ex34 = Instance(
      Vector("A", "B", "C", "D"),
      Vector(Vector(7, 2, 8, 4), Vector(5, 2, 8, 6), Vector(7, 2, 8, 6)),
    )
    val sat = Experiments.prepare(spark, "satellites")
    val cases = Seq(("Ex. 3.4", ex34, Vector(FD(Set(0), 2))), ("satellites", sat.inst, sat.fds)) ++
      (700 until 705).map { seed =>
        val (inst, fds) = TestGen.instanceWithFds(seed)
        (s"seed $seed", inst, fds)
      }
    for ((name, inst, fds) <- cases) {
      val masked = Clauses.forAllPositions(inst, FDs.closure(fds)).toSeq.map { case (p, cls) => p -> MonteCarlo.mask(cls) }
      for (iters <- Seq(1L, 64L, 25000L, 25001L, 180001L)) {
        val one = MonteCarlo.sample(masked, iters, 11, 1).toSeq
        assert(one.size == masked.size, s"$name, $iters iterations")
        for (w <- Seq(2, 3, 8))
          assert(MonteCarlo.sample(masked, iters, 11, w).toSeq == one, s"$name, $iters iterations, $w workers")
      }
    }
    assert(samplerThreads().isEmpty)
  }

  test("a worker's exception is rethrown and leaves no sampler thread alive") {
    val good = MonteCarlo.mask(Vector(Set(Pos(0, 0), Pos(1, 0))))
    val bad = MonteCarlo.MaskedClauses(2, Array(Array(0, 2))) // var 2 ≥ nVars
    val masked = Seq(Pos(0, 0) -> good, Pos(1, 1) -> bad, Pos(2, 2) -> good)
    for (w <- Seq(1, 3, 8)) {
      val call = Future(MonteCarlo.sample(masked, 180001, 5, w))(ExecutionContext.global)
      val e = intercept[ArrayIndexOutOfBoundsException](Await.result(call, 30.seconds))
      assert(e.getMessage.contains("2"), e.getMessage)
      assert(samplerThreads().isEmpty, s"$w workers")
    }
  }

  test("run samples on daemon threads plaque-mc-<n>, at most one per core, and none outlives it") {
    // ncvoter's 19 clause-shape classes at 10M iterations sample for hundreds
    // of milliseconds, and the watcher polls every millisecond from before the run.
    val nc = Experiments.prepare(spark, "ncvoter")
    val seen = scala.collection.mutable.Set.empty[(String, Boolean)]
    val polling = new java.util.concurrent.CountDownLatch(1)
    @volatile var done = false
    val watcher = new Thread(() =>
      while (!done) {
        seen.synchronized(seen ++= samplerThreads().map(t => (t.getName, t.isDaemon)))
        polling.countDown()
        Thread.sleep(1)
      })
    watcher.start()
    try { polling.await(); PlaqueTest.run(spark, nc.inst, nc.fds, 10000000, 1) }
    finally { done = true; watcher.join() }
    assert(samplerThreads().isEmpty)
    val cores = math.min(spark.sparkContext.defaultParallelism, Runtime.getRuntime.availableProcessors)
    assert(seen.nonEmpty && seen.forall { case (n, daemon) => daemon && n.matches("plaque-mc-\\d+") }, seen)
    assert(seen.map(_._1).size <= cores, seen)
  }
}
