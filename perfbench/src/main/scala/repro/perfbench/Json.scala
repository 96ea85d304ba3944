package repro.perfbench

/** Minimal JSON writer for the benchmark's report. Objects keep key order. */
object Json {
  final case class Obj(fields: Seq[(String, Any)])

  def obj(fields: (String, Any)*): Obj = Obj(fields)

  def render(v: Any): String = v match {
    case Obj(fs)   => fs.map { case (k, x) => s"${quote(k)}: ${render(x)}" }.mkString("{", ", ", "}")
    case m: Map[_, _] => render(Obj(m.toSeq.map { case (k, x) => k.toString -> x }.sortBy(_._1)))
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => require(!d.isNaN && !d.isInfinite, s"non-finite number $d"); d.toString
    case n: Int    => n.toString
    case n: Long   => n.toString
    case xs: Iterable[_] => xs.map(render).mkString("[", ", ", "]")
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
