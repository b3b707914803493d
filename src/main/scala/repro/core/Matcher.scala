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
  def text: String = segs.iterator.map(_.text).mkString

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

/** LL(1) parser for structure templates (paper §3.3 Remark: the form of
  * Assumption 3 is an LL(1) grammar, so extraction is linear-time).
  *
  *  - literal char: must equal the next input char;
  *  - field: maximal non-empty run of characters outside the template's
  *    charset (Assumption 2: formatting and field characters are disjoint);
  *  - array `({A}x)*{A}y`: parse A; on `x` continue, on `y` stop (x != y
  *    keeps this deterministic).
  *
  * The whole input must be consumed (records end exactly at their last
  * '\n').
  */
object Matcher {

  /** Parse `text` (which must include its trailing '\n') against `t`. */
  def parse(t: Template, text: String): Option[Parsed] = {
    val stop = t.charset
    var pos = 0
    val n = text.length

    def parseItems(items: Vector[TElem], prefix: String): Option[Vector[Seg]] = {
      val out = Vector.newBuilder[Seg]
      var idx = 0
      var arrIdx = 0
      var fldIdx = 0
      while (idx < items.length) {
        items(idx) match {
          case TChar(c) =>
            if (pos >= n || text.charAt(pos) != c) return None
            out += LitSeg(c.toString)
            pos += 1
          case TField =>
            val start = pos
            while (pos < n && !stop.contains(text.charAt(pos))) pos += 1
            if (pos == start) return None
            out += FieldSeg(s"${prefix}f$fldIdx", text.substring(start, pos))
            fldIdx += 1
          case TArray(body, sep, term) =>
            val apath = s"${prefix}a$arrIdx"
            arrIdx += 1
            val startPos = pos
            val elems = Vector.newBuilder[Vector[Seg]]
            var done = false
            while (!done) {
              parseItems(body, s"$apath.") match {
                case None => return None
                case Some(es) => elems += es
              }
              if (pos >= n) return None
              val c = text.charAt(pos)
              if (c == sep) { pos += 1 }
              else if (c == term) { done = true }
              else return None
            }
            // pos currently points AT the terminator; array text excludes it
            out += ArraySeg(apath, text.substring(startPos, pos), elems.result())
            out += LitSeg(term.toString)
            pos += 1
        }
        idx += 1
      }
      Some(out.result())
    }

    parseItems(t.items, "") match {
      case Some(segs) if pos == n => Some(Parsed(segs))
      case _                      => None
    }
  }

  /** Smallest line span s in [t.minLines, maxSpan] such that
    * lines[start .. start+s) parse as one record of `t`, together with that
    * parse; the record text is the joined lines each terminated by '\n'.
    */
  def smallestSpanAt(
      t: Template,
      lines: IndexedSeq[String],
      start: Int,
      maxSpan: Int
  ): Option[(Int, Parsed)] = {
    val first = math.max(1, t.minLines)
    // a fixed-span template has a single candidate span
    val widest = if (t.fixedLineSpan) first else maxSpan
    val last = math.min(math.min(widest, maxSpan), lines.length - start)
    var s = first
    while (s <= last) {
      parse(t, joinLines(lines, start, s)) match {
        case Some(parsed) => return Some((s, parsed))
        case None         => s += 1
      }
    }
    None
  }

  /** lines[start .. start+span) joined with each line '\n'-terminated. */
  def joinLines(lines: IndexedSeq[String], start: Int, span: Int): String = {
    val sb = new StringBuilder
    var i = start
    while (i < start + span) {
      sb.append(lines(i)).append('\n')
      i += 1
    }
    sb.toString
  }
}
