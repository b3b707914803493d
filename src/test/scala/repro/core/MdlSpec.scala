package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples
import scala.collection.mutable

/** MDL regularity score: scanning, field typing, description lengths. */
class MdlSpec extends AnyFunSuite {

  private val F = TField
  private def c(ch: Char) = TChar(ch)
  private val csv = Template(Vector(TArray(Vector(F), ',', '\n')))

  // ---- scan

  test("scan parses records and flags noise lines") {
    // note: "oops," does NOT match (F,)*F\n (trailing separator); a
    // comma-free junk line WOULD match it as a single-element array
    val lines = Vector("1,2", "oops,", "3,4")
    val sc = Mdl.scan(csv, lines, 10)
    assert(sc.recordCount == 2 && sc.firstStart == 0)
    assert(sc.noiseLines == Vector(1))
  }

  test("scan: a comma-free line matches the csv array as one element") {
    val sc = Mdl.scan(csv, Vector("justoneblob"), 10)
    assert(sc.recordCount == 1)
  }

  test("scan is greedy left-to-right with spans") {
    val t = Template(Vector(F, c(':'), F, c('\n'), c('!'), c('\n')))
    val lines = Vector("a:b", "!", "a:c", "!", "x")
    val sc = Mdl.scan(t, lines, 10)
    // two records of two lines each: lines 0-3, 12 characters with their '\n's
    assert(sc.recordCount == 2 && sc.firstStart == 0 && sc.recordChars == 12)
    assert(sc.noiseLines == Vector(4))
  }

  test("scan coverage fraction") {
    val lines = Vector("1,2", "junk,")
    val sc = Mdl.scan(csv, lines, 10)
    assert(math.abs(sc.coverage - 4.0 / 10.0) < 1e-9)
  }

  // ---- type inference: a column costs the bits of its cheapest type

  /** The bits `Mdl.score` charges for a column of these values. */
  private def columnBits(values: Iterable[String]): Double = {
    val c = new Mdl.ColumnSummary
    values.foreach(v => c.add(v, 0, v.length))
    c.bits
  }

  test("inferType: integer column") {
    // 1..999 spans 999 values: 10 bits each, below the strings' 72 bits
    assert(columnBits(Seq("1", "42", "999")) == 3 * 10.0)
  }

  test("inferType: integer bit width from range") {
    // 0..255: 8 bits each, below the strings' 48 bits and the 2-value enum's 50
    assert(columnBits(Seq("0", "255")) == 2 * 8.0)
  }

  test("inferType: real column") {
    // 0.00..67.13 at 2 decimals spans 6714 values: 13 bits each
    val vals = (0 until 50).map(i => f"${i * 1.37}%.2f")
    assert(columnBits(vals) == 50 * 13.0)
  }

  test("inferType: small-vocabulary column becomes enum") {
    // 1 bit per value plus the dictionary "INFO", "WARN" with terminators
    val vals = Vector.fill(100)("INFO") ++ Vector.fill(100)("WARN")
    assert(columnBits(vals) == 200 * 1.0 + 2 * 5 * 8.0)
  }

  test("inferType: open-vocabulary strings stay strings") {
    val r = new scala.util.Random(1)
    val vals = (0 until 300).map(_ => r.alphanumeric.take(8).mkString)
    assert(columnBits(vals) == 300 * 9 * 8.0)
  }

  test("inferType: enum dictionary cost is charged") {
    val vals = Vector.fill(4)("abcdefgh") ++ Vector.fill(4)("ijklmnop")
    // dictionary 2*9*8 = 144 bits + 8 values of 1 bit, below the strings' 576
    assert(columnBits(vals) == 144.0 + 8.0)
  }

  test("inferType: empty column is a string") {
    assert(columnBits(Nil) == 0.0)
  }

  test("string cost counts terminator") {
    assert(columnBits(Seq("abc")) == 32.0)
  }

  // ---- scoring

  test("structured csv scores far below the noise baseline") {
    val lines = (0 until 200).map(i => s"$i,${i % 5},${i * 7}").toVector
    val sc = Mdl.scan(csv, lines, 10)
    val score = Mdl.score(csv, sc)
    assert(score < 0.6 * Mdl.noiseBaseline(lines), s"score=$score")
  }

  test("trivial F\\n template scores above the noise baseline") {
    val r = new scala.util.Random(2)
    val lines = (0 until 200).map(_ => r.alphanumeric.take(30).mkString).toVector
    val fOnly = Template(Vector(F, c('\n')))
    val sc = Mdl.scan(fOnly, lines, 10)
    assert(sc.recordCount == 200)
    assert(Mdl.score(fOnly, sc) > Mdl.noiseBaseline(lines))
  }

  test("word-salad array template does not beat the noise baseline") {
    val r = new scala.util.Random(3)
    def w() = (0 until 3 + r.nextInt(5)).map(_ => ('a' + r.nextInt(26)).toChar).mkString
    val lines = (0 until 200).map(_ => (0 until 2 + r.nextInt(6)).map(_ => w()).mkString(" ")).toVector
    val t = Template(Vector(TArray(Vector(F), ' ', '\n')))
    val sc = Mdl.scan(t, lines, 10)
    assert(Mdl.score(t, sc) > Mdl.noiseBaseline(lines))
  }

  test("unparsed lines are charged as noise") {
    val lines = Vector("1,2", "x" * 50)
    val sc = Mdl.scan(csv, lines, 10)
    val score = Mdl.score(csv, sc)
    assert(score > 51 * 8.0) // at least the noise line's cost
  }

  test("correct structure beats a coarser structure on the same data") {
    // data: a:b,c — fine template separates ':' too
    val lines = (0 until 150).map(i => s"k$i:${i % 3},${i * 2}").toVector
    val coarse = Template(Vector(TArray(Vector(F), ',', '\n')))            // k:v merged
    val fine = Template(Vector(F, c(':'), F, c(','), F, c('\n')))
    val scC = Mdl.scan(coarse, lines, 10)
    val scF = Mdl.scan(fine, lines, 10)
    assert(Mdl.score(fine, scF) < Mdl.score(coarse, scC))
  }

  test("noiseBaseline is 8 bits per character plus block flags") {
    val lines = Vector("ab", "c")
    assert(Mdl.noiseBaseline(lines) == 32.0 + 2 + (3 + 2) * 8.0)
  }

  test("scan pools array elements per column") {
    val sc = Mdl.scan(csv, Vector("1,2,3", "4,5"), 10)
    assert(csv.program.columns == Vector("a0.f0") && sc.columns.length == 1)
    // the five elements 1..5 as one integer column: 3 bits each
    assert(sc.columns.head.bits == 5 * 3.0)
  }

  // ---- property: the one-pass summary types a column as the regexes do

  /** The typing rule the column summary replaced: two regexes per value
    * and `String.toLong`/`toDouble`. It shares no code with [[Mdl]], and
    * returns the cheapest encoding's name with the column's bits under it;
    * ties keep the earlier of string, enum, integer, real.
    */
  private def refBits(values: Seq[String]): (String, Double) = {
    def log2(x: Double) = math.log(x) / math.log(2.0)
    val IntRe = "-?\\d{1,18}".r
    val RealRe = "-?\\d{1,12}\\.\\d{1,9}".r
    val n = values.length.toLong
    if (n == 0) return ("string", 0.0)
    val distinct = values.distinct
    val candidates = mutable.ArrayBuffer(("string", values.map(v => (v.length + 1) * 8.0).sum))
    if (distinct.length <= 256 && distinct.length <= math.max(2, n / 4))
      candidates += (("enum", distinct.map(v => (v.length + 1) * 8.0).sum +
        n * math.ceil(log2(math.max(2, distinct.length)))))
    if (values.forall(IntRe.matches)) {
      val xs = values.map(_.toLong)
      candidates += (("integer", n * math.max(1.0, math.ceil(log2((xs.max - xs.min + 1).toDouble)))))
    }
    if (values.forall(RealRe.matches)) {
      val xs = values.map(_.toDouble)
      val exp = values.map(v => v.length - v.indexOf('.') - 1).max
      candidates += (("real", n * math.max(1.0, math.ceil(log2((xs.max - xs.min) * math.pow(10, exp) + 1.0)))))
    }
    candidates.minBy(_._2)
  }

  /** Values near the edges of both number rules. */
  private val edgeValue: Gen[String] = Gen.oneOf(
    "-", "-0", "0", "007", "-007", "1.", ".5", "-.5", "0.0", "-0.0", "1.5e3", "+1", "1 ", "",
    "123456789012345678", "-999999999999999999", "1234567890123456789", "9223372036854775807",
    "0.1234567890", "0.123456789", "1234567890123.5", "123456789012.123456789",
    "\u0661\u0662", "1\uff12", "\u0967.5", "12.\u0665")

  private def digitString(lo: Int, hi: Int): Gen[String] =
    Gen.choose(lo, hi).flatMap(k => Gen.listOfN(k, Gen.numChar)).map(_.mkString)

  private val intValue: Gen[String] = for {
    sign <- Gen.oneOf("", "", "-")
    d <- Gen.frequency(6 -> digitString(1, 6), 1 -> digitString(17, 19))
  } yield sign + d

  private val realValue: Gen[String] = for {
    sign <- Gen.oneOf("", "", "-")
    i <- Gen.frequency(6 -> digitString(1, 4), 1 -> digitString(11, 13))
    f <- Gen.frequency(6 -> digitString(1, 3), 1 -> digitString(8, 10))
  } yield s"$sign$i.$f"

  /** Columns that are mostly of one kind, so all-int and all-real columns
    * are common, with an edge value mixed in now and then.
    */
  private val column: Gen[Vector[String]] = for {
    kind <- Gen.oneOf(intValue, realValue, Gen.oneOf("INFO", "WARN", "7", "7.5"), edgeValue)
    n <- Gen.frequency(1 -> Gen.const(0), 8 -> Gen.choose(1, 40))
    vs <- Gen.listOfN(n, Gen.frequency(12 -> kind, 1 -> edgeValue))
  } yield vs.toVector

  test("property: the column summary types a column as the regex rule does") {
    var ints = 0
    var reals = 0
    for (vs <- samples(column, 2000)) {
      val c = new Mdl.ColumnSummary
      vs.foreach(v => c.add("<" + v + ">", 1, v.length + 1)) // read in place
      val (kind, bits) = refBits(vs)
      assert(c.bits == bits, s"column ${vs.mkString("|")}")
      assert(columnBits(vs) == bits)
      if (kind == "integer") ints += 1
      if (kind == "real") reals += 1
    }
    assert(ints > 100 && reals > 100, s"int columns $ints, real columns $reals")
  }
}
