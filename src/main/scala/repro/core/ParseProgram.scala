package repro.core

import scala.collection.immutable.{ArraySeq, VectorBuilder}
import Relational.TableRow

/** A top-level item of a parsed record, as the §9.3 judge reads it: its
  * kind ("L:," a literal, "F:f2" a field, "A:a1" an array, whose terminator
  * follows as a literal) and the raw text it covers.
  */
final case class Seg(kind: String, text: String)

/** A record's table rows (§3.3, in [[Relational.toRows]] order) and its
  * top-level items.
  */
final case class Parsed(rows: IndexedSeq[TableRow], segs: Vector[Seg])

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
  * parse succeeds, either as the record's table rows and top-level items
  * ([[parsed]]) or folded into column summaries ([[Mdl.scan]]).
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
    /** Each op's item by pc; a field's and an array's have no text. */
    items: Array[Seg],
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

  /** The rows and top-level items of the parse in `buf`, made over
    * `lines`, in one walk over the program. An element's row takes its slot
    * when the element opens, before the rows of the arrays inside it.
    */
  def parsed(lines: IndexedSeq[String], buf: ParseBuffer): Parsed = {
    val rows = new Array[TableRow](1 + Iterator.range(0, buf.arrayCount).map(buf.repetitions).sum)
    val segs = Vector.newBuilder[Seg]
    // by depth, the open row (the record's at 0, then the current element's
    // of each open array) with its slot and ord, and that array's instance
    // and element index
    val n = buf.arrayCount + 1
    val slot, inst, elem = new Array[Int](n)
    val ord = new Array[String](n)
    val values = new Array[VectorBuilder[String]](n)
    ord(0) = ""
    values(0) = new VectorBuilder[String]
    var d, f, a, pc = 0 // depth, next field and array instance of the buffer, op
    var free = 1 // next free row slot
    def openRow(d: Int, at: Int): Unit = {
      slot(d) = at
      ord(d) = if (d == 1) elem(d).toString else s"${ord(d - 1)}.${elem(d)}"
      values(d) = new VectorBuilder[String]
    }
    while (pc < code.length) code(pc) match {
      case Lit =>
        if (d == 0) segs += items(pc)
        pc += 2
      case Field =>
        val v = lines(buf.line(f)).substring(buf.from(f), buf.to(f))
        values(d) += v
        if (d == 0) segs += Seg(items(pc).kind, v)
        f += 1; pc += 2
      case Open =>
        if (d == 0) segs += Seg(items(pc).kind, arrayText(lines, buf, a))
        d += 1; inst(d) = a; elem(d) = 0; a += 1
        openRow(d, free); free += 1; pc += 3
      case _ => // Next: the element ends
        val id = buf.arrayId(inst(d))
        rows(slot(d)) = TableRow(id, arrays(id), ord(d), values(d).result())
        elem(d) += 1
        if (elem(d) < buf.repetitions(inst(d))) { openRow(d, free); free += 1; pc = code(pc + 3) }
        else { d -= 1; if (d == 0) segs += items(pc); pc += 4 }
    }
    rows(0) = TableRow(-1, "", "", values(0).result())
    Parsed(ArraySeq.unsafeWrapArray(rows), segs.result())
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
    val opItems = scala.collection.mutable.Map.empty[Int, Seg] // by pc
    var nCols = 0
    var nArrs = 0
    def walk(items: Vector[TElem], prefix: String, owner: Int): Unit = {
      var fld = 0
      var arr = 0
      items.foreach {
        case TChar(c) =>
          opItems(code.length) = Seg(s"L:$c", c.toString)
          code += Lit += c
        case TField =>
          val col = s"${prefix}f$fld"
          opItems(code.length) = Seg(s"F:$col", "")
          code += Field += nCols
          cols += col
          owners += owner
          nCols += 1; fld += 1
        case TArray(body, sep, term) =>
          val path = s"${prefix}a$arr"
          arrs += path
          val open = code.length
          opItems(open) = Seg(s"A:$path", "")
          val id = nArrs
          code += Open += id += -1
          nArrs += 1; arr += 1
          walk(body, s"$path.", id)
          code(open + 2) = code.length
          opItems(code.length) = Seg(s"L:$term", term.toString)
          code += Next += sep += term += open + 3
      }
    }
    walk(t.items, "", -1)
    new ParseProgram(t.charset, code.toArray, Array.tabulate(code.length)(opItems.getOrElse(_, null)),
      cols.result(), arrs.result(), owners.result())
  }

  /** The text of array instance `k` of `buf`: from its first element up to
    * its terminator.
    */
  private def arrayText(lines: IndexedSeq[String], buf: ParseBuffer, k: Int): String = {
    val at = buf.arrays
    val (l0, c0, l1, c1) = (at(6 * k + 2), at(6 * k + 3), at(6 * k + 4), at(6 * k + 5))
    if (l0 == l1) lines(l0).substring(c0, c1)
    else lines.slice(l0, l1).mkString("", "\n", "\n").substring(c0) + lines(l1).substring(0, c1)
  }
}
