package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples

/** The LL(1) parse program: parsing, table rows and top-level items,
  * spans, and the column and array ids that name the relational tables.
  */
class MatcherSpec extends AnyFunSuite {
  import MatcherSpec._

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  private val csv = Template(Vector(TArray(Vector(F), ',', '\n')))

  test("csv array template matches any column count >= 1") {
    assert(ParseRecord(csv, "a\n").isDefined)
    assert(ParseRecord(csv, "a,b\n").isDefined)
    assert(ParseRecord(csv, "a,b,c,d\n").isDefined)
  }

  test("csv array template extracts elements in order") {
    val p = ParseRecord(csv, "x,y,z\n").get
    assert(p.rows.tail.map(_.values) == Vector(Vector("x"), Vector("y"), Vector("z")))
    assert(p.segs.head == Seg("A:a0", "x,y,z"))
  }

  test("array terminator is emitted as a following literal segment") {
    val p = ParseRecord(csv, "x,y\n").get
    assert(p.segs.last == Seg("L:\n", "\n"))
  }

  test("quoted csv template matches records with and without inner commas") {
    val t = Template(Vector(F, c(','), c('"'), TArray(Vector(F), ',', '"'), c(','), F, c('\n')))
    assert(ParseRecord(t, "1,\"a\",x\n").isDefined)
    assert(ParseRecord(t, "1,\"a,b,c\",x\n").isDefined)
    assert(ParseRecord(t, "1,a,x\n").isEmpty)
  }

  test("fields must be non-empty") {
    val t = Template(Vector(F, c(','), F, c('\n')))
    assert(ParseRecord(t, "a,\n").isEmpty)
    assert(ParseRecord(t, ",b\n").isEmpty)
  }

  test("fields stop at any template charset character") {
    val t = Template(Vector(F, c(':'), F, c('\n')))
    // ':' inside the would-be first field must fail (it is a template char)
    assert(ParseRecord(t, "a:b:c\n").isEmpty)
    // '.' is not in this template's charset, so it stays in the field
    assert(ParseRecord(t, "a.b:c\n").isDefined)
  }

  test("whole input must be consumed") {
    val t = Template(Vector(F, c('\n')))
    assert(ParseRecord(t, "ab\ncd\n").isEmpty)
  }

  test("multi-line struct template parses joined lines") {
    val t = Template(Vector(c('{'), c('\n'), F, c(':'), F, c('\n'), c('}'), c('\n')))
    assert(ParseRecord(t, "{\na:b\n}\n").isDefined)
    assert(ParseRecord(t, "{\na:b\nc\n").isEmpty)
  }

  test("nested arrays parse and flatten") {
    // ( (F.)*F , )* (F.)*F \n — csv of dotted groups
    val inner = TArray(Vector(F), '.', ',')
    // note: inner terminator is the outer separator; model as struct instead:
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    val p = ParseRecord(t, "1.2;,3.4.5;\n")
    assert(p.isDefined)
    assert(p.get.rows.count(_.path == "a0") == 2)
  }

  test("field paths are stable and hierarchical") {
    val t = Template(Vector(F, c(' '), TArray(Vector(F, c(':'), F), ',', '\n')))
    val paths = ParsedFields(t, "h a:1,b:2\n").get.map(_._1)
    assert(paths == Vector("f0", "a0.f0", "a0.f1", "a0.f0", "a0.f1"))
  }

  test("parsed text reassembles the record") {
    val t = Template(Vector(F, c(','), c('"'), TArray(Vector(F), ',', '"'), c(','), F, c('\n')))
    val rec = "1,\"a,b\",x\n"
    assert(ParseRecord.text(ParseRecord(t, rec).get) == rec)
  }

  test("no non-ASCII character stops a field") {
    // ',' and '|' sit in the two halves of the 128-bit formatting mask
    val t = Template(Vector(F, c(','), F, c('|'), F, c('\n')))
    for (ch <- '\u0080' to '\uffff') {
      val fields = ParsedFields(t, s"a${ch}b,$ch|$ch$ch\n").map(_.map(_._2))
      assert(fields.contains(Vector(s"a${ch}b", s"$ch", s"$ch$ch")), f"U+${ch.toInt}%04X")
    }
  }

  test("a record of many fields and nested arrays parses whole") {
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    val rec = Vector.tabulate(60)(i => Vector.tabulate(i % 7 + 1)(j => s"v$i$j").mkString(".") + ";")
      .mkString(",") + "\n"
    val p = ParseRecord(t, rec).get
    assert(ParseRecord.text(p) == rec)
    val fields = (0 until 60).map(_ % 7 + 1).sum
    assert(p.rows.length == 1 + 60 + fields && ParsedFields(t, rec).get.length == fields)
  }

  /** The span's parse must be the parse of the joined span text. */
  private def spanParse(t: Template, lines: Vector[String], start: Int, span: Int) =
    (span, ParseRecord(t, lines.slice(start, start + span).map(_ + "\n").mkString).get)

  test("smallestSpanAt: fixed-span template") {
    val t = Template(Vector(F, c(':'), F, c('\n'), c('}'), c('\n')))
    val lines = Vector("a:b", "}", "noise")
    assert(ParseRecord.smallestSpanAt(t, lines, 0, 10).contains(spanParse(t, lines, 0, 2)))
    assert(ParseRecord.smallestSpanAt(t, lines, 1, 10).isEmpty)
  }

  test("smallestSpanAt: honors maxSpan") {
    val t = Template(Vector(F, c('\n'), F, c('\n'), F, c('\n')))
    val lines = Vector("a", "b", "c")
    assert(ParseRecord.smallestSpanAt(t, lines, 0, 2).isEmpty)
    assert(ParseRecord.smallestSpanAt(t, lines, 0, 3).contains(spanParse(t, lines, 0, 3)))
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
        val p = ParsedFields(t, text)
        assert(p.isDefined, s"${t.pretty} should match ${text.trim}")
        assert(p.get.map(_._2) == vals)
        checked += 1
      }
    }
    assert(checked > 150)
  }

  // ---- property: one parse equals the try-every-span rule

  /** The string parser the line-window matcher replaced: `text` (with its
    * trailing '\n') must be consumed whole. It shares no code with
    * [[ParseProgram]], so the property below also guards the item texts.
    */
  private def refTree(t: Template, text: String): Option[Vector[RefSeg]] = {
    val stop = t.charset
    var pos = 0
    val n = text.length
    def items(its: Vector[TElem], prefix: String): Option[Vector[RefSeg]] = {
      val out = Vector.newBuilder[RefSeg]
      var idx = 0
      var arrIdx = 0
      var fldIdx = 0
      while (idx < its.length) {
        its(idx) match {
          case TChar(ch) =>
            if (pos >= n || text.charAt(pos) != ch) return None
            out += RefLit(ch.toString)
            pos += 1
          case TField =>
            val from = pos
            while (pos < n && !stop.contains(text.charAt(pos))) pos += 1
            if (pos == from) return None
            out += RefField(s"${prefix}f$fldIdx", text.substring(from, pos))
            fldIdx += 1
          case TArray(body, sep, term) =>
            val apath = s"${prefix}a$arrIdx"
            arrIdx += 1
            val from = pos
            val elems = Vector.newBuilder[Vector[RefSeg]]
            var done = false
            while (!done) {
              items(body, s"$apath.") match {
                case None     => return None
                case Some(es) => elems += es
              }
              if (pos >= n) return None
              if (text.charAt(pos) == sep) pos += 1
              else if (text.charAt(pos) == term) done = true
              else return None
            }
            out += RefArray(apath, text.substring(from, pos), elems.result())
            out += RefLit(term.toString)
            pos += 1
        }
        idx += 1
      }
      Some(out.result())
    }
    items(t.items, "").filter(_ => pos == n)
  }

  /** A reference tree as a [[Parsed]], without the program: the rows by a
    * walk that emits a node's row before its arrays' rows, with table ids
    * numbered from [[preOrderArrays]], and the top-level items.
    */
  private def refParsed(t: Template, tree: Vector[RefSeg]): Parsed = {
    val tables = preOrderArrays(t.items, "").zipWithIndex.toMap
    val rows = Vector.newBuilder[Relational.TableRow]
    def walk(segs: Vector[RefSeg], table: Int, path: String, ord: String): Unit = {
      rows += Relational.TableRow(table, path, ord, segs.collect { case RefField(_, v) => v })
      segs.foreach {
        case RefArray(apath, _, elems) =>
          elems.zipWithIndex.foreach { case (es, i) =>
            walk(es, tables(apath), apath, if (ord.isEmpty) i.toString else s"$ord.$i")
          }
        case _ => ()
      }
    }
    walk(tree, -1, "", "")
    Parsed(rows.result(), tree.map {
      case RefLit(s)         => Seg(s"L:$s", s)
      case RefField(p, s)    => Seg(s"F:$p", s)
      case RefArray(p, s, _) => Seg(s"A:$p", s)
    })
  }

  private def refParse(t: Template, text: String): Option[Parsed] = refTree(t, text).map(refParsed(t, _))

  /** Repetition count of each array instance of a reference tree, keyed by
    * array path, in template order (nested arrays contribute too).
    */
  private def arrayCounts(tree: Vector[RefSeg]): Vector[(String, Int)] = {
    val out = Vector.newBuilder[(String, Int)]
    def walk(ss: Vector[RefSeg]): Unit = ss.foreach {
      case RefArray(path, _, els) => out += (path -> els.length); els.foreach(walk)
      case _                      => ()
    }
    walk(tree)
    out.result()
  }

  private def joined(lines: Vector[String], start: Int, span: Int): String =
    lines.slice(start, start + span).map(_ + "\n").mkString

  /** The replaced span rule: the smallest span whose joined lines parse. */
  private def refSpanAt(t: Template, lines: Vector[String], start: Int, maxSpan: Int) =
    (1 to math.min(maxSpan, lines.length - start)).iterator
      .map(s => (s, refParse(t, joined(lines, start, s))))
      .collectFirst { case (s, Some(p)) => (s, p) }

  private val litChars = Vector(',', ';', ':', ' ', '"', '\r', '\n')

  private def genItems(depth: Int): Gen[Vector[TElem]] =
    Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, genElem(depth)).map(_.toVector))

  private def genElem(depth: Int): Gen[TElem] = {
    val leaf = Gen.frequency(3 -> Gen.const(TField), 3 -> Gen.oneOf(litChars).map(TChar(_)))
    if (depth == 0) leaf
    else Gen.frequency(3 -> leaf, 1 -> (for {
      body <- genItems(depth - 1)
      sep <- Gen.oneOf(litChars)
      term <- Gen.oneOf(litChars.filterNot(_ == sep))
    } yield TArray(body, sep, term)))
  }

  /** Random template, including '\n' as an array separator or inside an
    * array body (spans that vary per record).
    */
  private val genTemplate: Gen[Template] = for {
    items <- genItems(2)
    last <- Gen.oneOf(TChar('\n'), TArray(Vector(TField), ',', '\n'))
  } yield Template(items :+ last)

  private val textChars = Vector('a', 'b', '7', '\u00e9', '\u4e2d', '\r', ' ', ',', ':', '"')

  /** A record of `t` with random values; one value in ten may hold
    * formatting characters, so some renderings do not parse.
    */
  private def render(t: Template): Gen[String] = {
    val clean = 'a' +: textChars.filterNot(t.charset)
    val value = Gen.frequency(
      9 -> Gen.choose(1, 3).flatMap(k => Gen.listOfN(k, Gen.oneOf(clean))),
      1 -> Gen.choose(1, 3).flatMap(k => Gen.listOfN(k, Gen.oneOf(textChars)))
    ).map(_.mkString)
    def items(its: Vector[TElem]): Gen[String] =
      its.foldLeft(Gen.const("")) { (acc, it) =>
        val next: Gen[String] = it match {
          case TField          => value
          case TChar(ch)       => Gen.const(ch.toString)
          case TArray(b, x, y) =>
            Gen.choose(1, 3).flatMap(k => Gen.listOfN(k, items(b))).map(_.mkString(x.toString) + y)
        }
        for (a <- acc; b <- next) yield a + b
      }
    items(t.items)
  }

  /** Records of the template between noise lines (empty ones included),
    * sometimes cut short so the last record runs past the input.
    */
  private val genCase: Gen[(Template, Vector[String])] = for {
    t <- genTemplate
    noise = Gen.choose(0, 4).flatMap(k => Gen.listOfN(k, Gen.oneOf(textChars))).map(_.mkString + "\n")
    blocks <- Gen.choose(1, 5).flatMap(n => Gen.listOfN(n, Gen.frequency(3 -> render(t), 1 -> noise)))
    cut <- Gen.frequency(3 -> Gen.const(0), 1 -> Gen.choose(1, 2))
  } yield {
    val lines = blocks.mkString.split("\n", -1).toVector.init
    (t, lines.dropRight(cut))
  }

  test("property: one parse equals the try-every-span rule") {
    val L = 6
    var matches = 0
    var variableSpan = 0
    var multiLineArrays = 0
    for ((t, lines) <- samples(genCase, 400); start <- 0 to lines.length; maxSpan <- 1 to L) {
      val got = ParseRecord.smallestSpanAt(t, lines, start, maxSpan)
      assert(got == refSpanAt(t, lines, start, maxSpan),
        s"${t.pretty} at $start, maxSpan $maxSpan over ${lines.mkString("|")}")
      for ((span, p) <- got) {
        matches += 1
        if (!t.fixedLineSpan && span > 1) variableSpan += 1
        if (p.segs.exists(s => s.kind.startsWith("A:") && s.text.contains('\n')))
          multiLineArrays += 1
      }
      if (maxSpan == L) for (s <- 1 to math.min(L, lines.length - start)) {
        val text = joined(lines, start, s)
        assert(ParseRecord(t, text) == refParse(t, text), s"${t.pretty} on $text")
      }
    }
    assert(matches > 1000 && variableSpan > 100 && multiLineArrays > 100,
      s"matches $matches, variable-span $variableSpan, multi-line arrays $multiLineArrays")
  }

  // ---- property: the program's ids name the tables and the array summaries

  /** Array paths of a template in pre-order, numbered apart from the program. */
  private def preOrderArrays(items: Vector[TElem], prefix: String): Vector[String] =
    items.collect { case a: TArray => a.body }.zipWithIndex.flatMap { case (body, i) =>
      s"${prefix}a$i" +: preOrderArrays(body, s"${prefix}a$i.")
    }

  test("property: column and array ids number the tables and the array summaries") {
    var records = 0
    var nested = 0
    for ((t, lines) <- samples(genCase, 1000); start <- lines.indices;
         (span, p) <- ParseRecord.smallestSpanAt(t, lines, start, 6)) {
      records += 1
      val schemas = Relational.schemas(t)
      for (row <- Relational.toRows(p)) {
        val s = schemas(row.table + 1)
        assert(s.path == row.path && s.cols.length == row.values.length, s"${t.pretty}: row $row vs $s")
      }
      val paths = preOrderArrays(t.items, "")
      if (paths.exists(_.contains('.'))) nested += 1
      val counts = arrayCounts(refTree(t, joined(lines, start, span)).get)
      val sc = Mdl.scan(t, lines.slice(start, start + span), span)
      assert(sc.recordCount == 1 && sc.arrays.length == paths.length, t.pretty)
      for ((path, id) <- paths.zipWithIndex)
        assert(sc.arrays(id).counts == counts.collect { case (`path`, k) => k }.toSet,
          s"${t.pretty}: array $id ($path) over ${lines.slice(start, start + span).mkString("|")}")
    }
    assert(records > 800 && nested > 80, s"records $records, with nested arrays $nested")
  }
}

object MatcherSpec {

  /** The reference parse as a tree: a template item per node, an array's
    * elements as its children.
    */
  private sealed trait RefSeg { def text: String }
  private final case class RefLit(text: String) extends RefSeg
  private final case class RefField(path: String, text: String) extends RefSeg
  private final case class RefArray(path: String, text: String, elems: Vector[Vector[RefSeg]]) extends RefSeg
}
