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
  }

  test("decode inverts encode for struct template") {
    val t = Template(Vector(F, c(','), F, c('\n')))
    assert(Template.decode(t.canonical) == t)
  }

  test("decode inverts encode for array template") {
    val t = Template(Vector(TArray(Vector(F), ',', '\n')))
    assert(Template.decode(t.canonical) == t)
  }

  test("decode inverts encode for nested arrays") {
    val inner = TArray(Vector(F), '.', ',')
    val t = Template(Vector(c('['), TArray(Vector(TField, c(':'), inner), ';', ']'), c('\n')))
    assert(Template.decode(t.canonical) == t)
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
      Vector(TArray(Vector(F, c('\u0080'), F), ',', '\n')))
    for (items <- bad) {
      intercept[IllegalArgumentException](Template(items))
      intercept[IllegalArgumentException](Template.decode(Template.encode(items)))
    }
    assert(Template(Vector(F, c('\u007f'), F, c('\n'))).charset.contains('\u007f'))
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

  // ---- property: encode/decode roundtrip over random templates

  private val litChar: Gen[Char] = Gen.oneOf(",;: .|[]-=\"\t".toSeq)

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

  test("property: encode/decode roundtrip (200 random templates)") {
    for (items <- samples(genItems(2), 200)) {
      val t = Template(items :+ TChar('\n'))
      assert(Template.decode(t.canonical) == t, t.pretty)
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
