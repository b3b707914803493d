package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples

/** Record-template extraction (step 3) and reduction to minimal structure
  * templates (step 4).
  */
class TemplateOpsSpec extends AnyFunSuite {

  /** The record template of `text` under formatting set `cs` (step 3):
    * '\n' is always formatting; each maximal run of other characters is
    * one field, and empty runs produce nothing.
    */
  private def recordTemplate(text: String, cs: Set[Char]): Vector[TElem] = {
    val out = Vector.newBuilder[TElem]
    var inField = false
    for (ch <- text) {
      if (ch == '\n' || cs.contains(ch)) { out += TChar(ch); inField = false }
      else if (!inField) { out += TField; inField = true }
    }
    out.result()
  }

  private def rt(text: String, cs: String): Vector[TElem] = recordTemplate(text, cs.toSet)

  private def mt(text: String, cs: String): String =
    MinimalTemplate(text, cs.toSet).get.pretty

  // ---- recordTemplate

  test("recordTemplate: fields are maximal non-formatting runs") {
    assert(rt("ab,cd\n", ",") == Vector(TField, TChar(','), TField, TChar('\n')))
  }

  test("recordTemplate: empty runs produce no field") {
    assert(rt("ab,,cd\n", ",") ==
      Vector(TField, TChar(','), TChar(','), TField, TChar('\n')))
  }

  test("recordTemplate: newline is always formatting") {
    assert(rt("ab\ncd\n", "") ==
      Vector(TField, TChar('\n'), TField, TChar('\n')))
  }

  test("recordTemplate: chars outside the charset stay in fields") {
    assert(rt("a.b,c\n", ",") == Vector(TField, TChar(','), TField, TChar('\n')))
  }

  test("recordTemplate: leading and trailing formatting") {
    assert(rt("[ab]\n", "[]") ==
      Vector(TChar('['), TField, TChar(']'), TChar('\n')))
  }

  test("recordTemplate: whole-line field under empty charset") {
    assert(rt("a b c\n", "") == Vector(TField, TChar('\n')))
  }

  // ---- reduce

  test("reduce: csv folds to (F,)*F\\n regardless of column count") {
    assert(mt("1,2\n", ",") == "(F,)*F\\n")
    assert(mt("1,2,3\n", ",") == "(F,)*F\\n")
    assert(mt("1,2,3,4,5,6,7\n", ",") == "(F,)*F\\n")
  }

  test("reduce: single field line does not fold") {
    assert(mt("abc\n", ",") == "F\\n")
  }

  test("reduce: two-field line with distinct terminator folds") {
    // F,F\n: one separator, terminator '\n' != ',' — minimal form is the array
    assert(mt("a,b\n", ",") == "(F,)*F\\n")
  }

  test("reduce: quoted csv gives the §3.2 structure template") {
    assert(mt("1,\"a,b,c\",x\n", ",\"") == "F,\"(F,)*F\",F\\n")
    assert(mt("1,\"a,b\",x\n", ",\"") == "F,\"(F,)*F\",F\\n")
  }

  test("reduce: no-comma quoted record stays a plain struct") {
    assert(mt("1,\"a\",x\n", ",\"") == "F,\"F\",F\\n")
  }

  test("reduce: ip-like dotted run folds with following space terminator") {
    assert(mt("192.168.0.1 x\n", ". ") == "(F.)*F (F )*F\\n" ||
           mt("192.168.0.1 x\n", ". ") == "(F.)*F F\\n")
  }

  test("reduce: bracketed list [F:F:F] folds inside brackets") {
    assert(mt("[1:2:3] 9\n", "[]: ") == "[(F:)*F] (F )*F\\n" ||
           mt("[1:2:3] 9\n", "[]: ") == "[(F:)*F] F\\n")
  }

  test("reduce: different repeat counts of same type give identical minimal template") {
    // bracketed colon-lists: the fold is anchored by '[' and ']'
    val a = MinimalTemplate("[1:2] x\n", "[]: ".toSet).get
    val b = MinimalTemplate("[1:2:3:4] y\n", "[]: ".toSet).get
    assert(a.canonical == b.canonical)
    // ... and space-separated word lists unify too
    val c = MinimalTemplate("a b\n", " ".toSet).get
    val d = MinimalTemplate("a b c d e\n", " ".toSet).get
    assert(c.canonical == d.canonical)
  }

  test("reduce: trailing-separator lists do not fold into the array form") {
    // [a];[b]; has no A x A y shape with x != y at the list level
    val t = MinimalTemplate("[a];[b];\n", "[];".toSet).get
    assert(t.items.count {
      case TArray(_, ';', _) => true
      case _ => false
    } == 0)
  }

  test("reduce: multi-line identical lines do not fold (x == y restriction)") {
    // the array form requires distinct separator/terminator; k identical
    // '\n'-terminated lines cannot become an array (documented limitation)
    val t2 = MinimalTemplate("a:b\na:c\n", ":".toSet).get
    val t3 = MinimalTemplate("a:b\na:c\na:d\n", ":".toSet).get
    assert(t2.canonical != t3.canonical)
  }

  test("reduce: syslog-like free tail folds into word array") {
    val t = mt("Apr 24 04:02:24 srv7 snort: a b c\n", " :")
    assert(t.contains("(F )*F\\n"), t)
  }

  test("reduce is idempotent") {
    for (text <- Vector("1,2,3\n", "a b c d\n", "[1:2] x.y\n", "k=v k=v\n")) {
      val items = recordTemplate(text, ",:=[]. ".toSet)
      val r1 = TemplateOps.reduce(items)
      assert(TemplateOps.reduce(r1) == r1)
    }
  }

  test("minimalTemplate rejects field-less records") {
    assert(MinimalTemplate(",,,\n", ",".toSet).isEmpty)
    assert(MinimalTemplate("\n", "".toSet).isEmpty)
  }

  test("minimalTemplate rejects overlong item sequences") {
    val text = ("a," * 1000) + "b\n"
    assert(MinimalTemplate(text, ",".toSet).isEmpty)
  }

  // ---- properties

  private val genCsvLine: Gen[(Int, String)] = for {
    n <- Gen.choose(1, 8)
    vals <- Gen.listOfN(n, Gen.alphaNumStr.suchThat(_.nonEmpty).map(_.take(5)))
  } yield (n, vals.mkString(",") + "\n")

  test("property: all csv lines with >=2 columns reduce to the same template") {
    val canons = samples(genCsvLine, 150).collect {
      case (n, line) if n >= 2 =>
        MinimalTemplate(line, Set(',')).get.canonical
    }
    assert(canons.nonEmpty)
    assert(canons.distinct.size == 1)
  }

  test("property: reduction never changes the matched language's sample point") {
    // the reduced template must still match the very record it came from
    for ((_, line) <- samples(genCsvLine, 100, seed = 3)) {
      val t = MinimalTemplate(line, Set(',')).get
      assert(ParseRecord(t, line).isDefined, s"template ${t.pretty} must match $line")
    }
  }

  test("property: reduce output contains no foldable residue") {
    for ((_, line) <- samples(genCsvLine, 60, seed = 9)) {
      val items = recordTemplate(line, Set(','))
      val reduced = TemplateOps.reduce(items)
      assert(TemplateOps.reduce(reduced) == reduced)
    }
  }
}
