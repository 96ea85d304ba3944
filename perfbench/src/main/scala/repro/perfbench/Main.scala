package repro.perfbench

import java.io.{ObjectInputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.TimeUnit

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** The plaque benchmark harness: one workload per JVM.
  *
  * A run starts a session and builds the inputs [[SetupReps]] times (each on
  * a fresh session; `setup_s` is the median), makes one first pass, then
  * untraced warm passes for `--seconds` and at least [[MinWarmPasses]] of
  * them. A workload whose pass needs no session then makes [[ColdPasses]]
  * passes, each in a fresh JVM, one after another; `first_pass_s` is their
  * median, else it is the first pass of this JVM. With `--trace 1` one
  * traced pass follows instead. Each pass's ops are checked right after the
  * pass, outside its timing. The end-to-end times are medians of wall times
  * multiplied by the run's [[HostGauge.scale]]. The last line of standard
  * output is the JSON result.
  */
object Main {
  val SetupReps = 5
  val MinWarmPasses = 2
  val ColdPasses = 5
  val ColdLimitS = 60L
  val MaxCores = 4
  val ShufflePartitions = 8

  val Workloads: Map[String, () => Workload] = Map(
    "mimics-mc" -> (() => new MimicsMc),
    "exact" -> (() => new Exact),
  )

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val name = args("workload")
    val wl = Workloads.getOrElse(name, () => sys.error(s"unknown workload $name"))()
    args.get("cold-state") match {
      case Some(state) => coldChild(wl, Paths.get(state))
      case None => run(wl, name, args)
    }
  }

  private def run(wl: Workload, name: String, args: Map[String, String]): Unit = {
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val trace = args("trace") == "1"
    val out = Paths.get(args("out"))
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors)
    val tasks = new TaskMetrics

    val host = new HostGauge
    HostGauge.warmUp()
    var spark: SparkSession = null
    val sessionS = Vector.newBuilder[Double]
    val setupMs = Vector.fill(SetupReps) {
      if (spark != null) spark.stop()
      host.around {
        val t0 = System.nanoTime()
        spark = session(cores, out)
        spark.sparkContext.addSparkListener(tasks)
        sessionS += (System.nanoTime() - t0) / 1e9
        wl.setup(spark, seed)
      }._2
    }

    var ops = Vector.empty[Op[_]]
    def timedPass(): Double = {
      System.gc() // every pass starts from the same heap state
      val (done, ms) = host.around(wl.pass())
      done.foreach(_.misses)
      ops ++= done
      ms
    }
    val firstMs = timedPass()
    val firstOps = ops.size
    val warmMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (warmMs.size < MinWarmPasses || (System.nanoTime() - t0) / 1e9 < seconds) warmMs += timedPass()
    val opMs = ops.drop(firstOps).groupMap(_.label)(_.ms).view.mapValues(median).toMap
    val cold = if (trace) Vector.empty else wl.coldState.fold(Vector.empty[Cold])(coldPasses(name, _, out, host))
    val coldMs = cold.map(_.ms).filterNot(_.isNaN)

    val traced = if (trace) Some {
      val t = new Trace
      val res = wl.traced(t, tasks, median(warmMs), opMs)
      ops ++= res.checks
      (t, res)
    } else None

    val misses = ops.flatMap(o => o.misses.map(m => s"${o.label}: $m")) ++ cold.flatMap(_.misses)
    val attempted = ops.size + cold.map(_.ops).sum
    val failed = ops.count(_.misses.nonEmpty) + cold.map(_.failed).sum
    for (_ <- 1 to 3) System.gc()
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
    spark.stop()

    val env = Seq(
      "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "max_heap_mb" -> heap.getMax / 1048576.0,
      "java" -> System.getProperty("java.version"), "spark" -> org.apache.spark.SPARK_VERSION,
      "master" -> s"local[$cores]", "shuffle_partitions" -> ShufflePartitions,
      "git_sha" -> args.getOrElse("git-sha", "unknown"), "source_sha256" -> args.getOrElse("source-sha", "unknown"),
      "setup_s_each" -> setupMs.map(_ / 1e3), "session_s_each" -> sessionS.result(), "first_pass_ms" -> firstMs,
      "warm_pass_ms" -> warmMs, "cold_pass_ms" -> coldMs,
      "gauge_ms" -> host.sampleMs, "gauge_nominal_ms" -> HostGauge.NominalMs, "gauge_scale" -> host.scale,
    )
    val metrics: Seq[(String, Double, String)] = traced match {
      case None =>
        Seq(
          ("setup_s", median(setupMs) * host.scale / 1e3, "s"),
          ("pass_s", median(warmMs) * host.scale / 1e3, "s"),
          ("first_pass_s", (if (coldMs.isEmpty) firstMs else median(coldMs)) * host.scale / 1e3, "s"),
          ("ok_ratio", 1.0 - failed.toDouble / attempted, "ratio"),
          ("heap_retained_mb", heap.getUsed / 1048576.0, "MB"),
        )
      case Some((_, res)) =>
        val m = res.metrics + ("host_gauge_ms" -> host.medianMs)
        Metrics.perLayer.map { case (k, unit) => (k, m.getOrElse(k, 0.0), unit) }
    }

    val result = Json.obj(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) => k -> Json.obj("value" -> v, "unit" -> u) }: _*),
    )
    val record = Json.obj(
      "env" -> Json.obj(env: _*),
      "misses" -> misses,
      "op_ms" -> ops.groupMap(_.label)(_.ms),
      "self_ms" -> traced.toSeq.flatMap(_._1.selfMs.map { case ((n, tag), ms) => s"$n/$tag" -> ms }).toMap,
      "spans" -> traced.toSeq.flatMap(_._1.spans.map(s =>
        Json.obj("id" -> s.id, "name" -> s.name, "tag" -> s.tag, "parent" -> s.parent,
          "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6))),
      "result" -> result,
    )
    Files.createDirectories(out)
    Files.write(out.resolve(s"$name-seed$seed-trace${if (trace) 1 else 0}.json"),
      Json.render(record).getBytes(StandardCharsets.UTF_8))

    misses.foreach(m => Console.err.println(s"MISS $m"))
    println(Json.render(Json.obj("env" -> Json.obj(env: _*))))
    for ((t, res) <- traced) {
      println(res.report)
      println("Self time per span (ms):")
      t.selfMs.foreach { case ((n, tag), ms) => println(f"  $n%-16s $tag%-16s $ms%10.1f") }
    }
    println(Json.render(result))
  }

  /** One cold pass: its wall ms (NaN if the JVM failed), its ops and their misses. */
  final case class Cold(ms: Double, ops: Int, failed: Int, misses: Seq[String])

  /** [[ColdPasses]] passes, each in a fresh JVM with this JVM's options and
    * classpath, one after another. The state goes to the children in a file.
    */
  private def coldPasses(name: String, state: java.io.Serializable, out: Path, host: HostGauge): Vector[Cold] = {
    Files.createDirectories(out)
    val file = out.resolve(s"$name-cold-state.bin")
    val os = new ObjectOutputStream(Files.newOutputStream(file))
    try os.writeObject(state) finally os.close()
    val log = out.resolve(s"$name-cold.out")
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val cmd = (java +: ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toVector) ++
      Vector("-cp", System.getProperty("java.class.path"), getClass.getName.stripSuffix("$"),
        "--workload", name, "--cold-state", file.toString)
    Vector.fill(ColdPasses) {
      val (p, _) = host.around {
        val p = new ProcessBuilder(cmd: _*).redirectOutput(log.toFile).redirectError(ProcessBuilder.Redirect.INHERIT).start()
        if (!p.waitFor(ColdLimitS, TimeUnit.SECONDS)) p.destroyForcibly()
        p.waitFor()
        p
      }
      val lines = Files.readAllLines(log).asScala
      lines.collectFirst { case l if l.startsWith("COLD ") => l.split(' ') } match {
        case Some(Array(_, ms, n, f)) if p.exitValue == 0 =>
          Cold(ms.toDouble, n.toInt, f.toInt,
            lines.collect { case l if l.startsWith("MISS ") => s"cold: ${l.drop(5)}" }.toSeq)
        case _ => Cold(Double.NaN, 1, 1, Seq(s"cold: pass failed (exit ${p.exitValue})"))
      }
    }
  }

  /** The child side of [[coldPasses]]: one pass on the restored state, then
    * `MISS <op>: <miss>` per missed check and `COLD <ms> <ops> <failed>`.
    */
  private def coldChild(wl: Workload, state: Path): Unit = {
    val in = new ObjectInputStream(Files.newInputStream(state))
    try wl.restore(in.readObject()) finally in.close()
    val t0 = System.nanoTime()
    val ops = wl.pass()
    val ms = (System.nanoTime() - t0) / 1e6
    ops.foreach(o => o.misses.foreach(m => println(s"MISS ${o.label}: $m")))
    println(s"COLD $ms ${ops.size} ${ops.count(_.misses.nonEmpty)}")
  }

  private def session(cores: Int, out: java.nio.file.Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
