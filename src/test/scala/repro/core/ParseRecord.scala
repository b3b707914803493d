package repro.core

/** Parsing for tests, through the program's line-window parse. */
object ParseRecord {

  /** `text`, which must end with '\n', as exactly one record of `t`. */
  def apply(t: Template, text: String): Option[Parsed] =
    if (text.isEmpty || text.last != '\n') None
    else {
      val lines = text.substring(0, text.length - 1).split("\n", -1).toIndexedSeq
      smallestSpanAt(t, lines, 0, lines.length).collect {
        case (span, parsed) if span == lines.length => parsed
      }
    }

  /** The line span s at which lines[start .. start+s) parse as one record of
    * `t`, with that parse; unique when it exists ([[ParseProgram]]), so also
    * the smallest.
    */
  def smallestSpanAt(t: Template, lines: IndexedSeq[String], start: Int, maxSpan: Int): Option[(Int, Parsed)] = {
    val buf = new ParseBuffer
    val span = t.program.parse(lines, start, maxSpan, buf)
    if (span < 0) None else Some((span, t.program.parsed(lines, buf)))
  }

  /** The record text a parse covers: its segments' texts in order. */
  def text(p: Parsed): String = p.segs.iterator.map(_.text).mkString
}
