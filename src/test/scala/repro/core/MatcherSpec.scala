package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples

/** LL(1) matcher: parsing, segment streams, spans. */
class MatcherSpec extends AnyFunSuite {

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  private val csv = Template(Vector(TArray(Vector(F), ',', '\n')))

  test("csv array template matches any column count >= 1") {
    assert(Matcher.parse(csv, "a\n").isDefined)
    assert(Matcher.parse(csv, "a,b\n").isDefined)
    assert(Matcher.parse(csv, "a,b,c,d\n").isDefined)
  }

  test("csv array template extracts elements in order") {
    val p = Matcher.parse(csv, "x,y,z\n").get
    val arr = p.segs.collectFirst { case a: ArraySeg => a }.get
    assert(arr.elems.map(_.collectFirst { case f: FieldSeg => f.text }.get) == Vector("x", "y", "z"))
    assert(arr.text == "x,y,z")
  }

  test("array terminator is emitted as a following literal segment") {
    val p = Matcher.parse(csv, "x,y\n").get
    assert(p.segs.last == LitSeg("\n"))
  }

  test("quoted csv template matches records with and without inner commas") {
    val t = Template(Vector(F, c(','), c('"'), TArray(Vector(F), ',', '"'), c(','), F, c('\n')))
    assert(Matcher.parse(t, "1,\"a\",x\n").isDefined)
    assert(Matcher.parse(t, "1,\"a,b,c\",x\n").isDefined)
    assert(Matcher.parse(t, "1,a,x\n").isEmpty)
  }

  test("fields must be non-empty") {
    val t = Template(Vector(F, c(','), F, c('\n')))
    assert(Matcher.parse(t, "a,\n").isEmpty)
    assert(Matcher.parse(t, ",b\n").isEmpty)
  }

  test("fields stop at any template charset character") {
    val t = Template(Vector(F, c(':'), F, c('\n')))
    // ':' inside the would-be first field must fail (it is a template char)
    assert(Matcher.parse(t, "a:b:c\n").isEmpty)
    // '.' is not in this template's charset, so it stays in the field
    assert(Matcher.parse(t, "a.b:c\n").isDefined)
  }

  test("whole input must be consumed") {
    val t = Template(Vector(F, c('\n')))
    assert(Matcher.parse(t, "ab\ncd\n").isEmpty)
  }

  test("multi-line struct template parses joined lines") {
    val t = Template(Vector(c('{'), c('\n'), F, c(':'), F, c('\n'), c('}'), c('\n')))
    assert(Matcher.parse(t, "{\na:b\n}\n").isDefined)
    assert(Matcher.parse(t, "{\na:b\nc\n").isEmpty)
  }

  test("nested arrays parse and flatten") {
    // ( (F.)*F , )* (F.)*F \n — csv of dotted groups
    val inner = TArray(Vector(F), '.', ',')
    // note: inner terminator is the outer separator; model as struct instead:
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    val p = Matcher.parse(t, "1.2;,3.4.5;\n")
    assert(p.isDefined)
    val outer = p.get.segs.collectFirst { case a: ArraySeg => a }.get
    assert(outer.elems.length == 2)
  }

  test("field paths are stable and hierarchical") {
    val t = Template(Vector(F, c(' '), TArray(Vector(F, c(':'), F), ',', '\n')))
    val p = Matcher.parse(t, "h a:1,b:2\n").get
    val paths = ParsedFields(p).map(_._1)
    assert(paths == Vector("f0", "a0.f0", "a0.f1", "a0.f0", "a0.f1"))
  }

  test("arrayCounts reports instance repetition") {
    val t = Template(Vector(TArray(Vector(F), ',', '\n')))
    assert(Matcher.parse(t, "a,b,c\n").get.arrayCounts == Vector(("a0", 3)))
  }

  test("parsed text reassembles the record") {
    val t = Template(Vector(F, c(','), c('"'), TArray(Vector(F), ',', '"'), c(','), F, c('\n')))
    val rec = "1,\"a,b\",x\n"
    assert(Matcher.parse(t, rec).get.text == rec)
  }

  /** The span's parse must be the parse of the joined span text. */
  private def spanParse(t: Template, lines: Vector[String], start: Int, span: Int) =
    (span, Matcher.parse(t, Matcher.joinLines(lines, start, span)).get)

  test("smallestSpanAt: fixed-span template") {
    val t = Template(Vector(F, c(':'), F, c('\n'), c('}'), c('\n')))
    val lines = Vector("a:b", "}", "noise")
    assert(Matcher.smallestSpanAt(t, lines, 0, 10).contains(spanParse(t, lines, 0, 2)))
    assert(Matcher.smallestSpanAt(t, lines, 1, 10).isEmpty)
  }

  test("smallestSpanAt: honors maxSpan") {
    val t = Template(Vector(F, c('\n'), F, c('\n'), F, c('\n')))
    val lines = Vector("a", "b", "c")
    assert(Matcher.smallestSpanAt(t, lines, 0, 2).isEmpty)
    assert(Matcher.smallestSpanAt(t, lines, 0, 3).contains(spanParse(t, lines, 0, 3)))
  }

  test("joinLines terminates every line") {
    assert(Matcher.joinLines(Vector("a", "b"), 0, 2) == "a\nb\n")
  }

  // ---- property: render-then-parse roundtrip

  private val value: Gen[String] =
    Gen.nonEmptyListOf(Gen.alphaNumChar).map(_.take(6).mkString)

  /** Random template with literals separating every field, plus rendered
    * values; returns (template items, rendered text, expected field values
    * in parse order).
    */
  private val genRendered: Gen[(Vector[TElem], String, Vector[String])] = {
    val lit = Gen.oneOf(",;:|[]= .".toSeq)
    val unit: Gen[(Vector[TElem], String, Vector[String])] = for {
      v <- value
      l <- lit
    } yield (Vector(TField, TChar(l)), v + l, Vector(v))
    val arrUnit: Gen[(Vector[TElem], String, Vector[String])] = for {
      sep <- lit
      term <- lit.suchThat(_ != sep)
      k <- Gen.choose(1, 4)
      vs <- Gen.listOfN(k, value)
    } yield (
      Vector(TArray(Vector(TField), sep, term)),
      vs.mkString(sep.toString) + term,
      vs.toVector
    )
    for {
      n <- Gen.choose(1, 5)
      parts <- Gen.listOfN(n, Gen.frequency(3 -> unit, 1 -> arrUnit))
    } yield {
      val items = parts.flatMap(_._1).toVector :+ TChar('\n')
      val text = parts.map(_._2).mkString + "\n"
      val vals = parts.flatMap(_._3).toVector
      (items, text, vals)
    }
  }

  test("property: rendered records parse back to their field values") {
    var checked = 0
    for ((items, text, vals) <- samples(genRendered, 250)) {
      val t = Template(items)
      // skip ambiguous cases where a value contains a template charset char
      if (!vals.exists(v => v.exists(t.charset))) {
        val p = Matcher.parse(t, text)
        assert(p.isDefined, s"${t.pretty} should match ${text.trim}")
        assert(ParsedFields(p.get).map(_._2) == vals)
        checked += 1
      }
    }
    assert(checked > 150)
  }
}
