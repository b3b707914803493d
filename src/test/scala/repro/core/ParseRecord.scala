package repro.core

/** Whole-record parsing for tests: `text`, which must end with '\n', as
  * exactly one record of `t`, through the program's line-window parse.
  */
object ParseRecord {
  def apply(t: Template, text: String): Option[Parsed] =
    if (text.isEmpty || text.last != '\n') None
    else {
      val lines = text.substring(0, text.length - 1).split("\n", -1).toIndexedSeq
      Matcher.smallestSpanAt(t, lines, 0, lines.length).collect {
        case (span, parsed) if span == lines.length => parsed
      }
    }

  /** The record text a parse covers: its segments' texts in order. */
  def text(p: Parsed): String = p.segs.iterator.map(_.text).mkString
}
