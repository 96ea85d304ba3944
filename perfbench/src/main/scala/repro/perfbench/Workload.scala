package repro.perfbench

import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession

/** One call of a public entry point, timed; its check runs later, outside
  * every timed span. An op fails if it throws or misses its check.
  */
final class Op[A](val label: String, val ms: Double, val out: Try[A], check: A => Seq[String]) {
  lazy val misses: Seq[String] = out match {
    case Success(a) => Try(check(a)).fold(e => Seq(s"check threw $e"), identity)
    case Failure(e) => Seq(s"threw $e")
  }
}

object Op {
  def apply[A](label: String)(body: => A)(check: A => Seq[String]): Op[A] = {
    val t0 = System.nanoTime()
    val out = Try(body)
    new Op(label, (System.nanoTime() - t0) / 1e6, out, check)
  }

  /** An op that is only a check, made right away. */
  def check(label: String)(misses: => Seq[String]): Op[Unit] = {
    val op = apply(label)(())(_ => misses)
    op.misses
    op
  }

  def miss(ok: Boolean, what: => String): Seq[String] = if (ok) Nil else Seq(what)
}

/** What a traced pass hands back: per-layer metrics, the checks it made and
  * a plain-text report.
  */
final case class Traced(metrics: Map[String, Double], checks: Vector[Op[_]], report: String)

/** A benchmark workload: inputs built from a seed, then repeated passes over
  * the program's public entry points.
  */
trait Workload {

  /** Builds and caches the inputs in a fresh session. Called several times
    * per run, each on a new session; the last call's inputs are used.
    */
  def setup(spark: SparkSession, seed: Long): Unit

  /** One untraced pass. */
  def pass(): Vector[Op[_]]

  /** One traced pass over the same inputs.
    *
    * @param passMs median wall time of the untraced passes
    * @param opMs   median untraced time per op label
    */
  def traced(trace: Trace, tasks: TaskMetrics, passMs: Double, opMs: Map[String, Double]): Traced

  /** What a fresh JVM needs to make one pass without a Spark session: the
    * inputs and the checks' references. Asked for after the warm passes;
    * `None` if a pass needs the session.
    */
  def coldState: Option[java.io.Serializable] = None

  /** Takes the inputs of [[coldState]] in a fresh JVM, in place of [[setup]]. */
  def restore(state: AnyRef): Unit = throw new UnsupportedOperationException("no cold state")
}
