package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples

/** Template AST, canonical encoding, and derived properties. */
class TemplateSpec extends AnyFunSuite {

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  test("canonical encoding is injective for distinct simple templates") {
    val t1 = Template(Vector(F, c(','), F, c('\n')))
    val t2 = Template(Vector(F, c(','), F, c(','), c('\n')))
    assert(t1.canonical != t2.canonical)
    // an array's close mark tells where its body ends
    val t3 = Template(Vector(TArray(Vector(F), ',', ';'), F, c('.'), c('\n')))
    val t4 = Template(Vector(TArray(Vector(F, c(','), c(';'), F), '.', '\n')))
    assert(t3.canonical != t4.canonical)
  }

  test("pretty prints the paper's csv array form") {
    val t = Template(Vector(TArray(Vector(F), ',', '\n')))
    assert(t.pretty == "(F,)*F\\n")
  }

  test("charset collects literal, separator and terminator chars plus newline") {
    val t = Template(Vector(c('['), TArray(Vector(F), ':', ']'), c(' '), F, c('\n')))
    assert(t.charset == Set('[', ':', ']', ' ', '\n'))
  }

  test("a non-ASCII formatting character is rejected when the template is built") {
    val bad = Vector(
      Vector(F, c('§'), F, c('\n')),
      Vector(TArray(Vector(F), '·', '\n')),
      Vector(TArray(Vector(F), ',', ' '), c('\n')),
      Vector(TArray(Vector(F, c('\u0080'), F), ',', '\n')),
      // the canonical string's marks: as literals they would encode like
      // a field or an array's brackets
      Vector(F, c('\u0001'), F, c('\n')),
      Vector(TArray(Vector(F), '\u0002', '\n')),
      Vector(TArray(Vector(F, c('\u0003'), F), ',', '\n')))
    for (items <- bad) intercept[IllegalArgumentException](Template(items))
    assert(Template(Vector(F, c('\u007f'), F, c('\n'))).charset.contains('\u007f'))
    assert(Template(Vector(F, c('\u0000'), F, c('\u0004'), c('\n'))).charset.size == 3)
  }

  test("lineGroups counts top-level lines") {
    val t = Template(Vector(F, c('\n'), F, c('\n')))
    assert(t.lineGroups.length == 2)
    assert(t.fixedLineSpan)
  }

  test("array terminated by newline contributes one minimum line") {
    val t = Template(Vector(TArray(Vector(F), ',', '\n')))
    assert(t.lineGroups.length == 1)
    assert(t.fixedLineSpan)
  }

  test("newline as array separator makes the span variable") {
    val t = Template(Vector(TArray(Vector(F), '\n', '!'), c('\n')))
    assert(!t.fixedLineSpan)
    assert(t.lineGroups.length == 1)
  }

  test("TArray rejects sep == term") {
    assertThrows[IllegalArgumentException](TArray(Vector(F), ',', ','))
  }

  test("TArray rejects empty body") {
    assertThrows[IllegalArgumentException](TArray(Vector.empty, ',', ';'))
  }

  test("Template rejects empty item list") {
    assertThrows[IllegalArgumentException](Template(Vector.empty))
  }

  test("Template rejects a template that does not end a line") {
    assertThrows[IllegalArgumentException](Template(Vector(TField, TChar(','))))
  }

  // ---- property: the canonical string is injective over random templates

  private val lits: Vector[Char] = ",;: .|[]-=\"\t".toVector
  private val litChar: Gen[Char] = Gen.oneOf(lits)

  private def genItems(depth: Int): Gen[Vector[TElem]] = {
    val leaf: Gen[Vector[TElem]] = for {
      ch <- litChar
    } yield Vector(TField, TChar(ch))
    val arr: Gen[Vector[TElem]] =
      if (depth <= 0) leaf
      else for {
        body <- genItems(depth - 1)
        sep <- litChar
        term <- litChar.suchThat(_ != sep)
      } yield Vector(TArray(body :+ TField, sep, term))
    for {
      n <- Gen.choose(1, 4)
      parts <- Gen.listOfN(n, Gen.frequency(3 -> leaf, 1 -> arr))
    } yield parts.toVector.flatten
  }

  /** Every item sequence one edit away from `items`: a field turned into
    * a literal, a literal into a field or another literal, or an array's
    * separator, terminator or body edited.
    */
  private def neighbours(items: Vector[TElem]): Vector[Vector[TElem]] =
    items.indices.toVector.flatMap { i =>
      val edits: Vector[TElem] = items(i) match {
        case TField   => lits.map(TChar)
        case TChar(x) => lits.filter(_ != x).map(TChar) :+ TField
        case TArray(b, x, y) =>
          val others = lits.filter(ch => ch != x && ch != y)
          neighbours(b).map(TArray(_, x, y)) ++ others.map(TArray(b, _, y)) ++ others.map(TArray(b, x, _))
      }
      edits.map(items.updated(i, _))
    }

  test("property: two templates share a canonical string only when they are equal (200 random templates)") {
    val ts = samples(genItems(2), 200).map(items => Template(items :+ TChar('\n')))
    for (group <- ts.groupBy(_.canonical).values) assert(group.distinct.size == 1, group.head.pretty)
    for (t <- ts; v <- neighbours(t.items.init).map(es => Template(es :+ TChar('\n'))))
      assert(v.canonical != t.canonical, s"${t.pretty} and ${v.pretty}")
  }

  /** Reads a canonical string back into items: the field, array-open and
    * array-close marks that [[Template.encode]] writes, any other
    * character a literal. The program never parses the string; this left
    * inverse shows that it loses nothing.
    */
  private def decode(s: String): Template = {
    var i = 0
    def walk(): Vector[TElem] = {
      val out = Vector.newBuilder[TElem]
      var done = false
      while (!done && i < s.length) {
        s.charAt(i) match {
          case '\u0001' => out += TField; i += 1
          case '\u0002' =>
            i += 1
            val body = walk()
            out += TArray(body, s.charAt(i), s.charAt(i + 1)); i += 2
          case '\u0003' => i += 1; done = true
          case ch       => out += TChar(ch); i += 1
        }
      }
      out.result()
    }
    Template(walk())
  }

  test("property: encode/decode roundtrip (200 random templates)") {
    for (items <- samples(genItems(2), 200)) {
      val t = Template(items :+ TChar('\n'))
      assert(decode(t.canonical) == t, t.pretty)
    }
  }

  test("property: canonical length bounds encodedLength") {
    for (items <- samples(genItems(2), 100, seed = 7)) {
      val t = Template(items :+ TChar('\n'))
      assert(t.encodedLength == t.canonical.length)
      assert(t.encodedLength >= items.length / 2)
    }
  }
}
