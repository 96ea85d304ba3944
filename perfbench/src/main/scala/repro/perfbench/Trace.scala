package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced pass.
  *
  * A span is a name, a tag (the dataset, prefix or scan op it ran on), its
  * start and end, and the span that was open when it started. Spans are kept
  * in memory and written out once the pass is over.
  */
final class Trace {
  import Trace.Span

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String, tag: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(id, name, tag, parent, t0, System.nanoTime())
      open = open.tail
    }
  }

  def spans: Vector[Span] = done.sortBy(_.id).toVector

  /** Total wall time of the spans called `name` with tag `tag`. */
  def ms(name: String, tag: String): Double =
    done.iterator.filter(s => s.name == name && s.tag == tag).map(_.ms).sum

  /** Total wall time of the spans called `name`, over all tags. */
  def ms(name: String): Double = done.iterator.filter(_.name == name).map(_.ms).sum

  /** Self time per (name, tag): duration minus the time its children cover. */
  def selfMs: Vector[((String, String), Double)] = {
    val childMs = done.groupMapReduce(_.parent)(_.ms)(_ + _)
    val self = mutable.LinkedHashMap.empty[(String, String), Double]
    for (s <- spans) self((s.name, s.tag)) = self.getOrElse((s.name, s.tag), 0.0) + s.ms - childMs.getOrElse(s.id, 0.0)
    self.toVector
  }
}

object Trace {
  final case class Span(id: Int, name: String, tag: String, parent: Int, startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }
}
