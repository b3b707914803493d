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
final case class Parsed(segs: Vector[Seg]) extends Serializable

/** Where one parse put its fields and arrays, in reusable primitive arrays:
  * per field (column id, line, from, to), in parse order; per array
  * instance (array id, repetitions, first line, first column, terminator
  * line, terminator column), in pre-order. A failed parse leaves garbage,
  * so it is read only after [[ParseProgram.parse]] succeeds.
  */
final class ParseBuffer {
  private[core] var fields = new Array[Int](4 * 16)
  private[core] var arrays = new Array[Int](6 * 8)
  /** Fields and array instances of the last successful parse. */
  private[core] var fieldCount = 0
  private[core] var arrayCount = 0
  private var open = new Array[Int](8) // instance slots of the arrays being parsed
  private var depth = 0

  def column(k: Int): Int = fields(4 * k)
  def line(k: Int): Int = fields(4 * k + 1)
  def from(k: Int): Int = fields(4 * k + 2)
  def to(k: Int): Int = fields(4 * k + 3)
  def arrayId(k: Int): Int = arrays(6 * k)
  def repetitions(k: Int): Int = arrays(6 * k + 1)

  private[core] def clear(): Unit = { fieldCount = 0; arrayCount = 0; depth = 0 }

  private[core] def addField(col: Int, ln: Int, from: Int, to: Int): Unit = {
    if (4 * fieldCount + 4 > fields.length) fields = java.util.Arrays.copyOf(fields, 2 * fields.length)
    val k = 4 * fieldCount
    fields(k) = col; fields(k + 1) = ln; fields(k + 2) = from; fields(k + 3) = to
    fieldCount += 1
  }

  private[core] def openArray(id: Int, ln: Int, col: Int): Unit = {
    if (6 * arrayCount + 6 > arrays.length) arrays = java.util.Arrays.copyOf(arrays, 2 * arrays.length)
    if (depth == open.length) open = java.util.Arrays.copyOf(open, 2 * depth)
    val k = 6 * arrayCount
    arrays(k) = id; arrays(k + 1) = 0; arrays(k + 2) = ln; arrays(k + 3) = col
    open(depth) = k
    depth += 1
    arrayCount += 1
  }

  /** One more element of the innermost open array. */
  private[core] def element(): Unit = arrays(open(depth - 1) + 1) += 1

  /** The innermost open array ends at its terminator, at (ln, col). */
  private[core] def closeArray(ln: Int, col: Int): Unit = {
    depth -= 1
    val k = open(depth)
    arrays(k + 4) = ln; arrays(k + 5) = col
  }
}

/** A template compiled once into a flat LL(1) parse program (paper §3.3
  * Remark: the form of Assumption 3 is an LL(1) grammar, so a match is one
  * linear pass):
  *
  *  - literal char: must equal the next input char;
  *  - field: maximal non-empty run of characters outside the template's
  *    charset (Assumption 2: formatting and field characters are disjoint),
  *    tested against a 128-bit mask ([[Template.apply]] admits ASCII
  *    formatting characters only, so no other character ever stops a field);
  *  - array `({A}x)*{A}y`: parse A; on `x` continue, on `y` stop (x != y
  *    keeps this deterministic).
  *
  * Fields and arrays carry integer ids, numbered in template pre-order,
  * with their paths ("f2", "a1.f0", ...) and the table of each column (the
  * relational output's, §3.3) computed here once: this is the only
  * numbering of a template's columns, arrays and tables. A parse writes
  * only offsets into a [[ParseBuffer]]; the caller reads them after the
  * parse succeeds, either as a segment tree ([[parsed]]) or folded into
  * column summaries ([[Mdl.scan]]).
  *
  * The input is a window of lines (which hold no '\n') read in place, each
  * followed by a virtual '\n'. The parse is deterministic, so over the
  * window it runs exactly as over any shorter span up to that span's end,
  * and '\n' is in every charset, so no field crosses a line end. A span of
  * s lines thus matches iff the window's parse completes at the end of its
  * s-th line: a record starting at a line has at most one parse, and that
  * parse fixes its span.
  */
final class ParseProgram private (
    charset: Set[Char],
    code: Array[Int],
    /** Path of each column id ("f2", "a1.f0", ...). */
    val columns: Vector[String],
    /** Path of each array id ("a0", "a0.a1", ...). */
    val arrays: Vector[String],
    /** Table of each column id: the id of the innermost array around it,
      * or -1 for the root (record) table.
      */
    val owners: Vector[Int]
) {
  import ParseProgram._

  private val maskLo = charset.foldLeft(0L)((m, c) => if (c < 64) m | (1L << c) else m)
  private val maskHi = charset.foldLeft(0L)((m, c) => if (c >= 64) m | (1L << (c - 64)) else m)

  private def isFormatting(c: Char): Boolean =
    c < 128 && ((if (c < 64) maskLo >>> c else maskHi >>> (c - 64)) & 1L) != 0

  /** Parse one record of the template at line `start`, reading at most
    * min(maxSpan, lines.length - start) lines; running out of them means no
    * match. Returns the record's line span, or -1; on success `buf` holds
    * the parse.
    */
  def parse(lines: IndexedSeq[String], start: Int, maxSpan: Int, buf: ParseBuffer): Int = {
    val end = start + math.min(maxSpan, lines.length - start) // window [start, end)
    if (end <= start) return -1
    buf.clear()
    // cursor: column `col` of line `ln`; col == cur.length is its '\n'
    var ln = start
    var cur = lines(start)
    var col = 0
    var pc = 0
    while (pc < code.length) {
      val op = code(pc)
      if (op == Field) {
        if (ln >= end) return -1
        val from = col
        val n = cur.length
        while (col < n && !isFormatting(cur.charAt(col))) col += 1
        if (col == from) return -1
        buf.addField(code(pc + 1), ln, from, col)
        pc += 2
      } else if (op == Open) {
        buf.openArray(code(pc + 1), ln, col)
        pc += 3
      } else {
        // Lit or Next: one formatting character under the cursor, -1 past the window
        val c = if (ln >= end) -1 else if (col < cur.length) cur.charAt(col).toInt else '\n'.toInt
        if (op == Lit) {
          if (c != code(pc + 1)) return -1
          pc += 2
        } else {
          buf.element()
          if (c == code(pc + 1)) pc = code(pc + 3)
          else if (c == code(pc + 2)) { buf.closeArray(ln, col); pc += 4 }
          else return -1
        }
        if (col < cur.length) col += 1
        else { ln += 1; col = 0; cur = if (ln < end) lines(ln) else null }
      }
    }
    // every template ends with a line-ending item: a complete parse ends
    // after the '\n' of its last line
    ln - start
  }

  /** The segment tree of the parse in `buf`, made over `lines`. */
  def parsed(lines: IndexedSeq[String], buf: ParseBuffer): Parsed = {
    var f = 0 // next field of the buffer
    var a = 0 // next array instance of the buffer
    def run(from: Int, until: Int): Vector[Seg] = {
      val out = Vector.newBuilder[Seg]
      var pc = from
      while (pc < until) {
        val op = code(pc)
        if (op == Lit) { out += LitSegs(code(pc + 1)); pc += 2 }
        else if (op == Field) {
          out += FieldSeg(columns(code(pc + 1)), lines(buf.line(f)).substring(buf.from(f), buf.to(f)))
          f += 1
          pc += 2
        } else {
          val k = 6 * a
          a += 1
          val next = code(pc + 2)
          val elems = Vector.fill(buf.arrays(k + 1))(run(pc + 3, next))
          out += ArraySeg(arrays(code(pc + 1)),
            text(lines, buf.arrays(k + 2), buf.arrays(k + 3), buf.arrays(k + 4), buf.arrays(k + 5)), elems)
          out += LitSegs(code(next + 2))
          pc = next + 4
        }
      }
      out.result()
    }
    Parsed(run(0, code.length))
  }
}

object ParseProgram {
  // Lit c | Field column | Open array endPc | Next sep term bodyPc, where
  // endPc is the array's Next and bodyPc the first op of its body
  private final val Lit = 0
  private final val Field = 1
  private final val Open = 2
  private final val Next = 3

  def apply(t: Template): ParseProgram = {
    val code = scala.collection.mutable.ArrayBuffer.empty[Int]
    val cols = Vector.newBuilder[String]
    val arrs = Vector.newBuilder[String]
    val owners = Vector.newBuilder[Int]
    var nCols = 0
    var nArrs = 0
    def walk(items: Vector[TElem], prefix: String, owner: Int): Unit = {
      var fld = 0
      var arr = 0
      items.foreach {
        case TChar(c) => code += Lit += c
        case TField =>
          code += Field += nCols
          cols += s"${prefix}f$fld"
          owners += owner
          nCols += 1; fld += 1
        case TArray(body, sep, term) =>
          val path = s"${prefix}a$arr"
          arrs += path
          val open = code.length
          val id = nArrs
          code += Open += id += -1
          nArrs += 1; arr += 1
          walk(body, s"$path.", id)
          code(open + 2) = code.length
          code += Next += sep += term += open + 3
      }
    }
    walk(t.items, "", -1)
    new ParseProgram(t.charset, code.toArray, cols.result(), arrs.result(), owners.result())
  }

  private val LitSegs: Array[LitSeg] = Array.tabulate(128)(c => LitSeg(c.toChar.toString))

  /** Text from line `l0`, column `c0` up to line `l1`, column `c1`. */
  private def text(lines: IndexedSeq[String], l0: Int, c0: Int, l1: Int, c1: Int): String =
    if (l0 == l1) lines(l0).substring(c0, c1)
    else lines.slice(l0, l1).mkString("", "\n", "\n").substring(c0) + lines(l1).substring(0, c1)
}
