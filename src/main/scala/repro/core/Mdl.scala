package repro.core

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
    * [[Datamaran.extract]] with that template alone, plus its accounting.
    */
  final case class ParseScan(
      records: Vector[RecordInstance],
      noiseLines: Vector[Int],
      recordChars: Long,
      /** record chars excluding completely unconstrained template lines
        * (bare `F\n`): such lines are description-length-neutral padding,
        * so only the anchored part counts toward Assumption 1.
        */
      anchoredChars: Long,
      totalChars: Long
  ) {
    def coverage: Double = if (totalChars == 0) 0.0 else recordChars.toDouble / totalChars
  }

  def scan(t: Template, lines: IndexedSeq[String], maxSpan: Int): ParseScan = {
    val records = Datamaran.extract(lines, Vector(t), maxSpan)
    val noise = Vector.newBuilder[Int]
    // a fixed-span template has exactly one line per top-level line group:
    // the offsets within a record of its bare `F\n` lines
    val bare =
      if (!t.fixedLineSpan) Vector.empty[Int]
      else t.lineGroups.indices.filter(i => t.lineGroups(i) == Vector(TField, TChar('\n')))
    def lineChars(i: Int): Long = lines(i).length + 1L
    var recordChars = 0L
    var bareChars = 0L
    var next = 0 // first line after the previous record
    for (r <- records) {
      while (next < r.start) { noise += next; next += 1 }
      while (next < r.start + r.span) { recordChars += lineChars(next); next += 1 }
      for (off <- bare) bareChars += lineChars(r.start + off)
    }
    while (next < lines.length) { noise += next; next += 1 }
    val total = lines.iterator.map(_.length + 1L).sum
    ParseScan(records, noise.result(), recordChars, recordChars - bareChars, total)
  }

  /** Field value type with its per-value description cost in bits.
    * `overheadBits` is the one-off cost of describing the type's parameters
    * (an enum's value dictionary; an integer's min/max; a real's min/max and
    * decimal exponent) — charged once per column.
    */
  sealed trait FieldType {
    def bitsPer(v: String): Double
    def overheadBits: Double
  }
  final case class EnumType(nValues: Int, dictBits: Double) extends FieldType {
    private val bits = math.ceil(log2(math.max(2, nValues)))
    def bitsPer(v: String): Double = bits
    def overheadBits: Double = dictBits
  }
  final case class IntType(min: Long, max: Long) extends FieldType {
    private val bits = math.ceil(log2((max - min + 1).toDouble))
    def bitsPer(v: String): Double = math.max(1.0, bits)
    // min/max are folded into the model constant as in the paper's scheme
    def overheadBits: Double = 0.0
  }
  final case class RealType(min: Double, max: Double, exp: Int) extends FieldType {
    private val bits =
      math.ceil(log2((max - min) * math.pow(10, exp) + 1.0))
    def bitsPer(v: String): Double = math.max(1.0, bits)
    def overheadBits: Double = 0.0
  }
  case object StrType extends FieldType {
    def bitsPer(v: String): Double = (v.length + 1) * 8.0
    def overheadBits: Double = 0.0
  }

  private def log2(x: Double): Double = math.log(x) / math.log(2.0)

  private val IntRe  = "-?\\d{1,18}".r
  private val RealRe = "-?\\d{1,12}\\.\\d{1,9}".r

  /** Infer the cheapest applicable type for a column of values, as the
    * paper's "determined by analyzing the field values in the group".
    * Enum applies when the distinct count is small relative to the column;
    * among applicable types the one with the lowest total cost wins.
    */
  def inferType(values: Iterable[String]): FieldType = {
    var n = 0L
    var totalLen = 0L
    val distinct = mutable.HashSet.empty[String]
    var allInt = true
    var allReal = true
    var minI = Long.MaxValue; var maxI = Long.MinValue
    var minR = Double.MaxValue; var maxR = Double.MinValue; var maxExp = 0
    for (v <- values) {
      n += 1
      totalLen += v.length
      if (distinct.size <= 256) distinct += v
      if (allInt) {
        if (IntRe.matches(v)) {
          val x = v.toLong
          if (x < minI) minI = x
          if (x > maxI) maxI = x
        } else allInt = false
      }
      if (allReal) {
        if (RealRe.matches(v)) {
          val x = v.toDouble
          if (x < minR) minR = x
          if (x > maxR) maxR = x
          maxExp = math.max(maxExp, v.length - v.indexOf('.') - 1)
        } else allReal = false
      }
    }
    if (n == 0) return StrType
    val candidates = mutable.ArrayBuffer.empty[(FieldType, Double)]
    val strCost = (totalLen + n) * 8.0
    candidates += ((StrType, strCost))
    val enumOk = distinct.size <= 256 && distinct.size <= math.max(2, n / 4)
    if (enumOk) {
      val dictBits = distinct.iterator.map(v => (v.length + 1) * 8.0).sum
      val t = EnumType(distinct.size, dictBits)
      candidates += ((t, t.overheadBits + n * t.bitsPer("")))
    }
    if (allInt) {
      val t = IntType(minI, maxI)
      candidates += ((t, t.overheadBits + n * t.bitsPer("")))
    }
    if (allReal) {
      val t = RealType(minR, maxR, maxExp)
      candidates += ((t, t.overheadBits + n * t.bitsPer("")))
    }
    candidates.minBy(_._2)._1
  }

  /** Per-column inferred types over a set of parsed records. */
  def columnTypes(records: Iterable[Parsed]): Map[String, FieldType] = {
    val cols = mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    records.foreach(_.visit(
      f => cols.getOrElseUpdate(f.path, mutable.ArrayBuffer.empty) += f.text,
      (_, _) => ()
    ))
    cols.iterator.map { case (p, vs) => p -> inferType(vs) }.toMap
  }

  /** Description length of a scanned dataset under template `t`. */
  def score(t: Template, sc: ParseScan, lines: IndexedSeq[String]): Double = {
    val types = columnTypes(sc.records.map(_.parsed))
    // bits to encode an array repetition count: from the observed maximum
    val maxRep = mutable.HashMap.empty[String, Int]
    for (r <- sc.records)
      r.parsed.visit(_ => (), (p, k) => maxRep.update(p, math.max(maxRep.getOrElse(p, 1), k)))
    val repBits = maxRep.map { case (p, mx) =>
      p -> math.max(1.0, math.ceil(log2(mx + 1.0)))
    }

    var total = t.encodedLength * 8.0 + 32.0
    total += (sc.records.length + sc.noiseLines.length).toDouble // block flags
    total += types.valuesIterator.map(_.overheadBits).sum
    for (r <- sc.records) {
      var acc = 0.0
      r.parsed.visit(
        f => acc += types(f.path).bitsPer(f.text),
        (p, _) => acc += repBits.getOrElse(p, 1.0)
      )
      total += acc
    }
    for (i <- sc.noiseLines) total += (lines(i).length + 1) * 8.0
    total
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
