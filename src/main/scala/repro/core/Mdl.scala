package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The default regularity score F(T,S): minimum description length
  * (paper §9.2). Lower is better.
  *
  * Total description length of a dataset under a structure template:
  *
  *   D = len(ST) * 8  +  32 + m  +  Σ_i D(block_i)
  *
  * where m is the number of blocks (records + noise lines), noise lines
  * cost len * 8 bits, and records are described through the template:
  * array instances cost ceil(log2(maxRep+1)) bits for their repeat count,
  * and field values are typed per column as enum / integer / real / string
  * with the bit costs given in the paper.
  */
object Mdl {

  /** One scan of `lines` with a template: the greedy record cover of
    * [[Datamaran.extract]] with that template alone, its accounting, and its
    * records folded into one summary per column and per array (indexed by
    * the ids of [[ParseProgram]]).
    */
  final case class ParseScan(
      recordCount: Int,
      /** first line of the first record; Int.MaxValue when there is none */
      firstStart: Int,
      noiseLines: Vector[Int],
      recordChars: Long,
      /** record chars excluding completely unconstrained template lines
        * (bare `F\n`): such lines are description-length-neutral padding,
        * so only the anchored part counts toward Assumption 1.
        */
      anchoredChars: Long,
      totalChars: Long,
      columns: IndexedSeq[ColumnSummary],
      arrays: IndexedSeq[ArraySummary]
  ) {
    def coverage: Double = if (totalChars == 0) 0.0 else recordChars.toDouble / totalChars
  }

  def scan(t: Template, lines: IndexedSeq[String], maxSpan: Int): ParseScan = {
    val columns = Array.fill(t.program.columns.length)(new ColumnSummary)
    val arrays = Array.fill(t.program.arrays.length)(new ArraySummary)
    var recordCount = 0
    var firstStart = Int.MaxValue
    val noise = Vector.newBuilder[Int]
    // a fixed-span template has exactly one line per top-level line group:
    // the offsets within a record of its bare `F\n` lines
    val bare =
      if (!t.fixedLineSpan) Vector.empty[Int]
      else t.lineGroups.indices.filter(i => t.lineGroups(i) == Vector(TField, TChar('\n')))
    def lineChars(i: Int): Long = lines(i).length + 1L
    var recordChars = 0L
    var noiseChars = 0L
    var bareChars = 0L
    var next = 0 // first line after the previous record
    val cover = new Datamaran.Cover(lines, Vector(t), maxSpan, 0, lines.length)
    val p = cover.parse
    while (cover.advance()) {
      val start = cover.start
      if (recordCount == 0) firstStart = start
      recordCount += 1
      while (next < start) { noise += next; noiseChars += lineChars(next); next += 1 }
      while (next < start + cover.span) { recordChars += lineChars(next); next += 1 }
      for (off <- bare) bareChars += lineChars(start + off)
      var k = 0
      while (k < p.fieldCount) { columns(p.column(k)).add(lines(p.line(k)), p.from(k), p.to(k)); k += 1 }
      k = 0
      while (k < p.arrayCount) { arrays(p.arrayId(k)).add(p.repetitions(k)); k += 1 }
    }
    while (next < lines.length) { noise += next; noiseChars += lineChars(next); next += 1 }
    ParseScan(recordCount, firstStart, noise.result(), recordChars, recordChars - bareChars,
      recordChars + noiseChars,
      ArraySeq.unsafeWrapArray(columns), ArraySeq.unsafeWrapArray(arrays))
  }

  private def log2(x: Double): Double = math.log(x) / math.log(2.0)

  /** Most distinct values an enum column may have. */
  private val MaxEnumValues = 256

  /** A column's values folded in one pass: all the paper's typing (§9.2,
    * "determined by analyzing the field values in the group") and the
    * column's description length need. Integers are `-?\d{1,18}` and
    * reals `-?\d{1,12}\.\d{1,9}`, over ASCII digits.
    */
  final class ColumnSummary {
    private var n = 0L
    private var totalLen = 0L
    private val distinct = mutable.HashSet.empty[String] // at most MaxEnumValues + 1
    private var allInt = true
    private var minI = Long.MaxValue
    private var maxI = Long.MinValue
    private var allReal = true
    private var minR = Double.MaxValue
    private var maxR = Double.MinValue
    private var maxExp = 0

    /** Fold in the value s[from, to). */
    def add(s: String, from: Int, to: Int): Unit = {
      n += 1
      totalLen += to - from
      var v: String = null // the value's substring, made at most once
      if (distinct.size <= MaxEnumValues) { v = s.substring(from, to); distinct += v }
      if (allInt || allReal) {
        val neg = from < to && s.charAt(from) == '-'
        val i0 = if (neg) from + 1 else from
        val i1 = digitsEnd(s, i0, to) // the integer digits are s[i0, i1)
        if (allInt) {
          if (i1 == to && i1 > i0 && i1 - i0 <= 18) {
            val x = if (neg) -digits(s, i0, i1) else digits(s, i0, i1)
            if (x < minI) minI = x
            if (x > maxI) maxI = x
          } else allInt = false
        }
        if (allReal) {
          val f1 = if (i1 < to && s.charAt(i1) == '.') digitsEnd(s, i1 + 1, to) else -1
          val fracDigits = f1 - i1 - 1 // the fraction digits are s[i1 + 1, f1)
          if (f1 == to && i1 > i0 && i1 - i0 <= 12 && fracDigits >= 1 && fracDigits <= 9) {
            val x = (if (v == null) s.substring(from, to) else v).toDouble
            if (x < minR) minR = x
            if (x > maxR) maxR = x
            if (fracDigits > maxExp) maxExp = fracDigits
          } else allReal = false
        }
      }
    }

    /** The column's description length in bits under its cheapest
      * applicable type (§9.2): a string costs 8 bits per character and
      * its terminator; an enum, applicable when the distinct count is
      * small relative to the column, costs its value dictionary once plus
      * ceil(log2(distinct)) bits per value; an integer or a real costs
      * the bits of its range (for a real, scaled by its largest decimal
      * exponent) per value, at least 1, with its minimum and maximum
      * folded into the model constant as in the paper's scheme.
      */
    def bits: Double = {
      if (n == 0) return 0.0
      var best = (totalLen + n) * 8.0
      if (distinct.size <= MaxEnumValues && distinct.size <= math.max(2, n / 4)) {
        val dictBits = distinct.iterator.map(v => (v.length + 1) * 8.0).sum
        best = math.min(best, dictBits + n * math.ceil(log2(math.max(2, distinct.size))))
      }
      if (allInt)
        best = math.min(best, n * math.max(1.0, math.ceil(log2((maxI - minI + 1).toDouble))))
      if (allReal)
        best = math.min(best, n * math.max(1.0, math.ceil(log2((maxR - minR) * math.pow(10, maxExp) + 1.0))))
      best
    }
  }

  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'

  private def digitsEnd(s: String, from: Int, to: Int): Int = {
    var i = from
    while (i < to && isDigit(s.charAt(i))) i += 1
    i
  }

  /** The value of the ASCII digits s[from, to), at most 18 of them. */
  private def digits(s: String, from: Int, to: Int): Long = {
    var x = 0L
    var i = from
    while (i < to) { x = x * 10 + (s.charAt(i) - '0'); i += 1 }
    x
  }

  /** An array's instances folded in one pass: their count, the largest
    * repetition and every repetition count observed.
    */
  final class ArraySummary {
    var instances = 0L
    private var maxRep = 1
    val counts = mutable.BitSet.empty

    def add(k: Int): Unit = {
      instances += 1
      if (k > maxRep) maxRep = k
      counts += k
    }

    /** Bits of every instance's repetition count, sized from the maximum. */
    def bits: Double = instances * math.max(1.0, math.ceil(log2(maxRep + 1.0)))
  }

  /** Description length of a scanned dataset under template `t`. Every term
    * is a whole number far below 2^53, so the sum is exact in any order.
    */
  def score(t: Template, sc: ParseScan): Double = {
    var total = t.encodedLength * 8.0 + 32.0
    total += (sc.recordCount + sc.noiseLines.length).toDouble // block flags
    for (c <- sc.columns) total += c.bits
    for (a <- sc.arrays) total += a.bits
    total + (sc.totalChars - sc.recordChars) * 8.0 // noise lines
  }

  /** The all-noise baseline: description length when nothing is a record.
    * A template is only acceptable when its score beats this (this is the
    * principled rejection of trivial `F\n`-style templates, and the
    * "no structure" decision for NS datasets).
    */
  def noiseBaseline(lines: IndexedSeq[String]): Double = {
    var total = 32.0 + lines.length
    for (l <- lines) total += (l.length + 1) * 8.0
    total
  }
}
