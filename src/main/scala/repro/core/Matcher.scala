package repro.core

/** One piece of a parsed record, in template order.
  *
  * The evaluation criterion (§5.1 / §9.3) and the relational converter both
  * consume this stream. For records of the same template the *shape* of the
  * stream (kinds and paths) is identical; only values and array element
  * counts differ.
  */
sealed trait Seg extends Serializable {
  /** Raw text covered by this segment. */
  def text: String
}

/** A literal formatting character of the template. */
final case class LitSeg(text: String) extends Seg

/** A field value; `path` identifies the template column (e.g. "f2",
  * "a1.f0" for a field inside the second top-level element when that
  * element is an array).
  */
final case class FieldSeg(path: String, text: String) extends Seg

/** A full array instance. `text` covers all elements and separators but NOT
  * the terminator (the terminator follows as a LitSeg). `elems` holds the
  * per-element segment streams for relational output.
  */
final case class ArraySeg(path: String, text: String, elems: Vector[Vector[Seg]]) extends Seg

/** A record parsed against a template. */
final case class Parsed(segs: Vector[Seg]) extends Serializable {
  /** Repetition count of each array instance, keyed by array path, in
    * template order (one entry per instance; nested arrays contribute too).
    */
  def arrayCounts: Vector[(String, Int)] = {
    val out = Vector.newBuilder[(String, Int)]
    visit(_ => (), (p, k) => out += (p -> k))
    out.result()
  }

  /** Allocation-free walk over all segments: `onField(path, value)` for
    * every field (arrays flattened), `onArray(path, count)` for every array
    * instance. The MDL scorer calls this once per record per candidate
    * template, so it must not build intermediate collections.
    */
  def visit(onField: FieldSeg => Unit, onArray: (String, Int) => Unit): Unit = {
    def walk(ss: Vector[Seg]): Unit = {
      var i = 0
      while (i < ss.length) {
        ss(i) match {
          case f: FieldSeg => onField(f)
          case ArraySeg(p, _, els) =>
            onArray(p, els.length)
            var j = 0
            while (j < els.length) { walk(els(j)); j += 1 }
          case _: LitSeg => ()
        }
        i += 1
      }
    }
    walk(segs)
  }
}

/** LL(1) matcher for structure templates (paper §3.3 Remark: the form of
  * Assumption 3 is an LL(1) grammar, so extraction is linear-time).
  *
  *  - literal char: must equal the next input char;
  *  - field: maximal non-empty run of characters outside the template's
  *    charset (Assumption 2: formatting and field characters are disjoint);
  *  - array `({A}x)*{A}y`: parse A; on `x` continue, on `y` stop (x != y
  *    keeps this deterministic).
  *
  * The input is a window of lines (which hold no '\n') read in place, each
  * followed by a virtual '\n'. The parse is deterministic, so over the
  * window it runs exactly as over any shorter span up to that span's end,
  * and '\n' is in every charset, so no field crosses a line end. A span of
  * s lines thus matches iff the window's parse completes at the end of its
  * s-th line: a record starting at a line has at most one parse, and that
  * parse fixes its span.
  */
object Matcher {

  /** The line span s at which lines[start .. start+s) parse as one record of
    * `t`, with that parse; unique when it exists (see above), so also the
    * smallest. One parse reads at most min(maxSpan, lines.length - start)
    * lines; running out of them means no match.
    */
  def smallestSpanAt(
      t: Template,
      lines: IndexedSeq[String],
      start: Int,
      maxSpan: Int
  ): Option[(Int, Parsed)] = {
    val end = start + math.min(maxSpan, lines.length - start) // window [start, end)
    if (end <= start) return None
    val stop = t.charset
    // cursor: column `col` of line `ln`; col == cur.length is its '\n'
    var ln = start
    var cur = lines(start)
    var col = 0

    /** Character under the cursor, -1 past the window. */
    def peek: Int = if (ln >= end) -1 else if (col < cur.length) cur.charAt(col) else '\n'

    def advance(): Unit =
      if (col < cur.length) col += 1
      else { ln += 1; col = 0; cur = if (ln < end) lines(ln) else null }

    /** Text from line `fromLn`, column `fromCol` up to the cursor. */
    def textFrom(fromLn: Int, fromCol: Int): String =
      if (fromLn == ln) cur.substring(fromCol, col)
      else
        lines.slice(fromLn, ln).mkString("", "\n", "\n").substring(fromCol) + cur.substring(0, col)

    def parseItems(items: Vector[TElem], prefix: String): Option[Vector[Seg]] = {
      val out = Vector.newBuilder[Seg]
      var idx = 0
      var arrIdx = 0
      var fldIdx = 0
      while (idx < items.length) {
        items(idx) match {
          case TChar(c) =>
            if (peek != c) return None
            out += LitSeg(c.toString)
            advance()
          case TField =>
            if (ln >= end) return None
            val from = col
            while (col < cur.length && !stop.contains(cur.charAt(col))) col += 1
            if (col == from) return None
            out += FieldSeg(s"${prefix}f$fldIdx", cur.substring(from, col))
            fldIdx += 1
          case TArray(body, sep, term) =>
            val apath = s"${prefix}a$arrIdx"
            arrIdx += 1
            val fromLn = ln
            val fromCol = col
            val elems = Vector.newBuilder[Vector[Seg]]
            var done = false
            while (!done) {
              parseItems(body, s"$apath.") match {
                case None => return None
                case Some(es) => elems += es
              }
              val c = peek
              if (c == sep) advance()
              else if (c == term) done = true
              else return None
            }
            // the cursor is AT the terminator; array text excludes it
            out += ArraySeg(apath, textFrom(fromLn, fromCol), elems.result())
            out += LitSeg(term.toString)
            advance()
        }
        idx += 1
      }
      Some(out.result())
    }

    // every template ends with a line-ending item: a complete parse ends
    // after the '\n' of its last line
    parseItems(t.items, "").map(segs => (ln - start, Parsed(segs)))
  }
}
