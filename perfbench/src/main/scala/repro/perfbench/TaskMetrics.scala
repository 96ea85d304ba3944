package repro.perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

/** Sums the task metrics of every Spark action run inside [[measure]]. */
final class TaskMetrics extends SparkListener {
  private var tasks = 0L
  private var runMs = 0L
  private var readBytes = 0L
  private var writeBytes = 0L

  override def onTaskEnd(end: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = end.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      readBytes += m.shuffleReadMetrics.totalBytesRead
      writeBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Runs `body` and returns its result with the tasks it ran. */
  def measure[A](sc: SparkContext)(body: => A): (A, TaskMetrics.Totals) = {
    ListenerBusDrain(sc)
    val before = snapshot
    val a = body
    ListenerBusDrain(sc)
    (a, snapshot - before)
  }

  private def snapshot: TaskMetrics.Totals = synchronized(TaskMetrics.Totals(tasks, runMs, readBytes, writeBytes))
}

object TaskMetrics {
  final case class Totals(tasks: Long, executorRunMs: Long, shuffleReadBytes: Long, shuffleWriteBytes: Long) {
    def -(o: Totals): Totals =
      Totals(tasks - o.tasks, executorRunMs - o.executorRunMs,
        shuffleReadBytes - o.shuffleReadBytes, shuffleWriteBytes - o.shuffleWriteBytes)
  }
}
