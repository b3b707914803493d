package repro.core

import org.scalatest.funsuite.AnyFunSuite

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
    assert(sc.records.map(_.start) == Vector(0, 2))
    assert(sc.noiseLines == Vector(1))
  }

  test("scan: a comma-free line matches the csv array as one element") {
    val sc = Mdl.scan(csv, Vector("justoneblob"), 10)
    assert(sc.records.length == 1)
  }

  test("scan is greedy left-to-right with spans") {
    val t = Template(Vector(F, c(':'), F, c('\n'), c('!'), c('\n')))
    val lines = Vector("a:b", "!", "a:c", "!", "x")
    val sc = Mdl.scan(t, lines, 10)
    assert(sc.records.map(r => (r.start, r.span)) == Vector((0, 2), (2, 2)))
    assert(sc.noiseLines == Vector(4))
  }

  test("scan coverage fraction") {
    val lines = Vector("1,2", "junk,")
    val sc = Mdl.scan(csv, lines, 10)
    assert(math.abs(sc.coverage - 4.0 / 10.0) < 1e-9)
  }

  // ---- type inference

  test("inferType: integer column") {
    val t = Mdl.inferType(Seq("1", "42", "999"))
    assert(t.isInstanceOf[Mdl.IntType])
  }

  test("inferType: integer bit width from range") {
    val t = Mdl.inferType(Seq("0", "255")).asInstanceOf[Mdl.IntType]
    assert(t.bitsPer("0") == 8.0)
  }

  test("inferType: real column") {
    val vals = (0 until 50).map(i => f"${i * 1.37}%.2f")
    val t = Mdl.inferType(vals)
    assert(t.isInstanceOf[Mdl.RealType])
  }

  test("inferType: small-vocabulary column becomes enum") {
    val vals = Vector.fill(100)("INFO") ++ Vector.fill(100)("WARN")
    val t = Mdl.inferType(vals)
    assert(t.isInstanceOf[Mdl.EnumType])
    assert(t.bitsPer("INFO") == 1.0)
  }

  test("inferType: open-vocabulary strings stay strings") {
    val r = new scala.util.Random(1)
    val vals = (0 until 300).map(_ => r.alphanumeric.take(8).mkString)
    assert(Mdl.inferType(vals) == Mdl.StrType)
  }

  test("inferType: enum dictionary cost is charged") {
    val vals = Vector.fill(4)("abcdefgh") ++ Vector.fill(4)("ijklmnop")
    // with only 8 values, dictionary (2*9*8=144 bits) + 8 bits > string cost? no:
    // string cost = 8*9*8 = 576; enum = 144 + 8 = 152 -> enum still wins
    assert(Mdl.inferType(vals).isInstanceOf[Mdl.EnumType])
  }

  test("inferType: empty column is a string") {
    assert(Mdl.inferType(Nil) == Mdl.StrType)
  }

  test("string cost counts terminator") {
    assert(Mdl.StrType.bitsPer("abc") == 32.0)
  }

  // ---- scoring

  test("structured csv scores far below the noise baseline") {
    val lines = (0 until 200).map(i => s"$i,${i % 5},${i * 7}").toVector
    val sc = Mdl.scan(csv, lines, 10)
    val score = Mdl.score(csv, sc, lines)
    assert(score < 0.6 * Mdl.noiseBaseline(lines), s"score=$score")
  }

  test("trivial F\\n template scores above the noise baseline") {
    val r = new scala.util.Random(2)
    val lines = (0 until 200).map(_ => r.alphanumeric.take(30).mkString).toVector
    val fOnly = Template(Vector(F, c('\n')))
    val sc = Mdl.scan(fOnly, lines, 10)
    assert(sc.records.length == 200)
    assert(Mdl.score(fOnly, sc, lines) > Mdl.noiseBaseline(lines))
  }

  test("word-salad array template does not beat the noise baseline") {
    val r = new scala.util.Random(3)
    def w() = (0 until 3 + r.nextInt(5)).map(_ => ('a' + r.nextInt(26)).toChar).mkString
    val lines = (0 until 200).map(_ => (0 until 2 + r.nextInt(6)).map(_ => w()).mkString(" ")).toVector
    val t = Template(Vector(TArray(Vector(F), ' ', '\n')))
    val sc = Mdl.scan(t, lines, 10)
    assert(Mdl.score(t, sc, lines) > Mdl.noiseBaseline(lines))
  }

  test("unparsed lines are charged as noise") {
    val lines = Vector("1,2", "x" * 50)
    val sc = Mdl.scan(csv, lines, 10)
    val score = Mdl.score(csv, sc, lines)
    assert(score > 51 * 8.0) // at least the noise line's cost
  }

  test("correct structure beats a coarser structure on the same data") {
    // data: a:b,c — fine template separates ':' too
    val lines = (0 until 150).map(i => s"k$i:${i % 3},${i * 2}").toVector
    val coarse = Template(Vector(TArray(Vector(F), ',', '\n')))            // k:v merged
    val fine = Template(Vector(F, c(':'), F, c(','), F, c('\n')))
    val scC = Mdl.scan(coarse, lines, 10)
    val scF = Mdl.scan(fine, lines, 10)
    assert(Mdl.score(fine, scF, lines) < Mdl.score(coarse, scC, lines))
  }

  test("noiseBaseline is 8 bits per character plus block flags") {
    val lines = Vector("ab", "c")
    assert(Mdl.noiseBaseline(lines) == 32.0 + 2 + (3 + 2) * 8.0)
  }

  test("columnTypes pools array elements per column") {
    val p1 = ParseRecord(csv, "1,2,3\n").get
    val p2 = ParseRecord(csv, "4,5\n").get
    val types = Mdl.columnTypes(Seq(p1, p2))
    assert(types.keySet == Set("a0.f0"))
    assert(types("a0.f0").isInstanceOf[Mdl.IntType])
  }
}
