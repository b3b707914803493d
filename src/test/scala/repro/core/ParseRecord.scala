package repro.core

/** Parsing for tests, through the program's line-window parse. */
object ParseRecord {

  /** `text`, which must end with '\n', as exactly one record of `t`. */
  def apply(t: Template, text: String): Option[Parsed] =
    whole(t, text).map { case (lines, buf) => t.program.parsed(lines, buf) }

  /** The lines of `text`, which must end with '\n', and the buffer of their
    * parse as exactly one record of `t`.
    */
  def whole(t: Template, text: String): Option[(IndexedSeq[String], ParseBuffer)] =
    if (text.isEmpty || text.last != '\n') None
    else {
      val lines = text.substring(0, text.length - 1).split("\n", -1).toIndexedSeq
      val buf = new ParseBuffer
      if (t.program.parse(lines, 0, lines.length, buf) == lines.length) Some((lines, buf)) else None
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

  /** The record text a parse covers: its top-level items' texts in order. */
  def text(p: Parsed): String = p.segs.iterator.map(_.text).mkString
}
