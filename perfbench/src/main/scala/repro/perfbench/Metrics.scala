package repro.perfbench

/** The per-layer metrics a traced run reports, with their units, in the
  * order `BENCHMARK.json` lists them. A layer a workload does not run reads
  * 0 on that workload.
  */
object Metrics {
  val Datasets: Seq[String] = repro.exp.Fig3Exp.DatasetNames
  val ScanOps: Seq[String] = Seq("holds", "nonunique", "profile")

  private val perDataset = Seq(
    "encode_ms" -> "ms", "discovery_ms" -> "ms",
    "closure_ms" -> "ms", "closure_fds_in" -> "count", "closure_fds_out" -> "count",
    "clauses_ms" -> "ms", "clauses_cells" -> "count", "clauses_max" -> "count", "clauses_max_union" -> "count",
    "mc_spark_ms" -> "ms", "mc_spark_tasks" -> "count", "mc_local_ms" -> "ms", "mc_samples" -> "count",
    "plaque_unaccounted_ms" -> "ms",
  )

  private val exact = Seq(
    "exact_optimized_ms" -> "ms", "exact_naive_ms" -> "ms",
    "exact_clause_ms.satellites" -> "ms", "exact_clause_ms.adult" -> "ms",
    "uniqueness_ms" -> "ms", "reduction_ms" -> "ms",
    "reduction_cells_max" -> "count", "exact_subsets" -> "count",
  )

  private val perScanOp = Seq(
    "scan_ms" -> "ms", "shuffle_read_bytes" -> "bytes", "shuffle_write_bytes" -> "bytes",
    "tasks" -> "count", "executor_run_ms" -> "ms", "core_busy" -> "ratio",
  )

  val perLayer: Seq[(String, String)] =
    (for ((m, u) <- perDataset; d <- Datasets) yield s"$m.$d" -> u) ++
      exact ++
      (for ((m, u) <- perScanOp; op <- ScanOps) yield s"$m.$op" -> u) :+
      ("trace_overhead_ms" -> "ms") :+ ("host_gauge_ms" -> "ms")
}
