package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Structure refinement: array unfolding (full + partial) and shifting. */
class RefineSpec extends AnyFunSuite {

  private val F = TField
  private def c(ch: Char) = TChar(ch)
  private val csvArr = Template(Vector(TArray(Vector(F), ',', '\n')))

  test("unfoldCandidates proposes the full unfold for a constant count") {
    val cands = Refine.unfoldCandidates(csvArr, Vector(Set(3)))
    val pretties = cands.map(_.pretty)
    assert(pretties.contains("F,F,F\\n"))
  }

  test("unfoldCandidates proposes one candidate per observed count") {
    val cands = Refine.unfoldCandidates(csvArr, Vector(Set(2, 4)))
    val pretties = cands.map(_.pretty)
    assert(pretties.contains("F,F\\n"))
    assert(pretties.contains("F,F,F,F\\n"))
  }

  test("unfoldCandidates proposes partial unfold when min count >= 2") {
    val cands = Refine.unfoldCandidates(csvArr, Vector(Set(3, 5)))
    assert(cands.map(_.pretty).contains("F,(F,)*F\\n"))
  }

  test("unfoldCandidates offers no partial unfold when some record has 1 element") {
    val cands = Refine.unfoldCandidates(csvArr, Vector(Set(1, 3)))
    assert(!cands.map(_.pretty).contains("F,(F,)*F\\n"))
  }

  test("unfoldCandidates recurses into nested arrays") {
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    // array ids 0 and 1 are "a0" and "a0.a0"
    val cands = Refine.unfoldCandidates(t, Vector(Set(2), Set(2)))
    assert(cands.nonEmpty)
    // at least one candidate unfolds the inner array
    assert(cands.exists(_.pretty.contains("F.F")))
  }

  test("a scan's array summaries hold each array id's observed counts") {
    val lines = Vector("1,2", "3,4,5")
    val sc = Mdl.scan(csvArr, lines, 10)
    assert(sc.arrays.map(_.counts) == Vector(Set(2, 3)))
  }

  test("refine unfolds a fixed-width csv into a struct") {
    val lines = (0 until 200).map(i => s"$i,${i % 4},${(i * 13) % 97}").toVector
    val (t, sc, _) = Refine.refine(Refine.scored(csvArr, lines, 10), lines, 10)
    assert(t.pretty == "F,F,F\\n", t.pretty)
    assert(sc.recordCount == 200)
  }

  test("refine keeps the array when column count truly varies") {
    // integer values make the array genuinely compressible, so losing the
    // variable-count records to noise is never worth a fixed-width unfold
    val r = new scala.util.Random(5)
    val lines = (0 until 200).map { i =>
      (0 until 2 + r.nextInt(5)).map(_ => r.nextInt(100).toString).mkString(",")
    }.toVector
    val (t, _, _) = Refine.refine(Refine.scored(csvArr, lines, 10), lines, 10)
    assert(t.pretty.contains("(F,)*F"), t.pretty)
  }

  test("refine partially unfolds syslog-like lines (regular head, text tail)") {
    val r = new scala.util.Random(6)
    def word() = ('a' + r.nextInt(26)).toChar.toString * (2 + r.nextInt(4))
    val lines = (0 until 250).map { i =>
      s"tag$i ${100 + r.nextInt(900)} " +
        (0 until 2 + r.nextInt(5)).map(_ => word()).mkString(" ")
    }.toVector
    val arr = Template(Vector(TArray(Vector(F), ' ', '\n')))
    val (t, _, scoreRefined) = Refine.refine(Refine.scored(arr, lines, 10), lines, 10)
    val scPlain = Mdl.scan(arr, lines, 10)
    val scorePlain = Mdl.score(arr, scPlain)
    assert(scoreRefined <= scorePlain)
    assert(t.pretty.startsWith("F "), s"expected a peeled head, got ${t.pretty}")
  }

  test("cyclicShifts produces the line rotations of a multi-line struct") {
    val t = Template(Vector(c('A'), F, c('\n'), c('B'), F, c('\n')))
    val shifts = Refine.cyclicShifts(t)
    assert(shifts.map(_.pretty) == Vector("BF\\nAF\\n"))
  }

  test("cyclicShifts of a single-line template is empty") {
    assert(Refine.cyclicShifts(csvArr).isEmpty)
  }

  test("refine resolves shifted multi-line structure to earliest occurrence") {
    // records are (H, v) pairs starting at line 0; the shifted variant
    // (v, H) first matches at line 1
    val lines = (0 until 120).flatMap(i => Vector(s"H=h$i", s"v:${i % 9}")).toVector
    val shifted = Template(Vector(
      c('v'), c(':'), F, c('\n'), c('H'), c('='), F, c('\n')))
    val (t, sc, _) = Refine.refine(Refine.scored(shifted, lines, 10), lines, 10)
    assert(sc.firstStart == 0, s"refined=${t.pretty} first=${sc.firstStart}")
    assert(t.pretty.startsWith("H="), t.pretty)
  }

  // ---- the parallel evaluation equals the serial one

  /** What a result says: its template, its score's bits and every field of
    * its scan (summaries by their bits, counts and instances).
    */
  private def view(r: Option[Refine.Scored]) = r.map { case (t, sc, score) =>
    (t.canonical, java.lang.Double.doubleToRawLongBits(score), sc.recordCount, sc.firstStart,
      sc.noiseLines, sc.recordChars, sc.anchoredChars, sc.totalChars, sc.columns.map(_.bits),
      sc.arrays.map(a => (a.instances, a.counts.toVector, a.bits)))
  }

  private def sameAsSerial(t: Template, lines: IndexedSeq[String], maxSpan: Int): Boolean =
    view(Some(Refine.refine(Refine.scored(t, lines, maxSpan), lines, maxSpan))) ==
      view(Some(SerialEvaluation.refine(t, lines, maxSpan, 0.0, Double.MaxValue)))

  /** A random record type of 1-3 lines and 2-31 of its records, some
    * broken, between noise lines, read from a random line of the first
    * record. Its lines hold fields between literals, and arrays of fields,
    * of `F:F` pairs or of a nested array, whose counts are constant or
    * vary; each column draws small integers, integers near its own base,
    * one of three words or free letters.
    */
  private def randomCase(r: scala.util.Random): (Template, Vector[String]) = {
    def body(): Vector[TElem] = r.nextInt(10) match {
      case 0 => Vector(TArray(Vector(F), '.', '/'))
      case 1 | 2 => Vector(F, c(':'), F)
      case _ => Vector(F)
    }
    val lineItems = Vector.fill(1 + r.nextInt(3)) {
      val units = 1 + r.nextInt(4)
      (0 until units).toVector.flatMap { u =>
        val last = u == units - 1
        if (r.nextInt(10) < 4) {
          val (sep, term) = if (last) (',', '\n') else if (r.nextBoolean()) (',', ' ') else (';', '|')
          Vector(TArray(body(), sep, term))
        } else F +: Vector(if (last) c('\n') else c(" |=".charAt(r.nextInt(3))))
      }
    }
    val t = Template(lineItems.flatten)
    val kinds = Vector.fill(t.program.columns.length)((r.nextInt(4), 1000000 + r.nextInt(1000000)))
    val counts = Vector.fill(t.program.arrays.length)(if (r.nextInt(10) < 6) 1 + r.nextInt(3) else 0)
    def value(col: Int): String = kinds(col) match {
      case (0, _)    => r.nextInt(10).toString
      case (1, base) => (base + r.nextInt(500)).toString
      case (2, _)    => Vector("GET", "PUT", "POST")(r.nextInt(3))
      case _         => Iterator.fill(2 + r.nextInt(5))(('a' + r.nextInt(26)).toChar).mkString
    }
    // renders `items` whose first column and array ids are `col` and `arr`
    def render(items: Vector[TElem], col0: Int, arr0: Int): (String, Int, Int) =
      items.foldLeft(("", col0, arr0)) { case ((out, col, arr), it) => it match {
        case TField    => (out + value(col), col + 1, arr)
        case TChar(ch) => (out + ch, col, arr)
        case TArray(b, x, y) =>
          val k = if (counts(arr) > 0) counts(arr) else 1 + r.nextInt(4)
          val parts = Vector.fill(k)(render(b, col, arr + 1))
          (out + parts.map(_._1).mkString(x.toString) + y, parts.head._2, parts.head._3)
      }}
    val lines = (0 until 2 + r.nextInt(30)).toVector.flatMap { _ =>
      val noise = Vector.fill(if (r.nextInt(10) == 0) 1 else 0)(
        Iterator.fill(r.nextInt(12))(('a' + r.nextInt(26)).toChar).mkString)
      val rec = render(t.items, 0, 0)._1.split("\n").toVector
      // one record in four is broken: a run of its lines alone
      noise ++ (if (r.nextInt(4) > 0) rec else rec.drop(r.nextInt(rec.length)).take(1 + r.nextInt(rec.length)))
    }
    (t, lines.drop(r.nextInt(lineItems.length)))
  }

  test("property: parallel refinement and evaluation equal the serial reference") {
    val p = DmParams(maxSpan = 6, topM = 16)
    var shifted, cut, unfolded = 0
    for (seed <- 0 until 300) {
      val (t, lines) = randomCase(new scala.util.Random(seed))
      val stats = Generation.exhaustiveSearch(Generation.generationSample(lines, p), p)
      val top = Generation.prune(
        Generation.dedupe(stats.map(s => s.copy(template = Refine.periodReduce(s.template)))), p)
      for (c <- (Refine.periodReduce(t) +: top.map(_.template).take(6)).distinct) {
        assert(sameAsSerial(c, lines, p.maxSpan), s"seed $seed: refine ${c.pretty}")
        val (rt, _, _) = Refine.refine(Refine.scored(c, lines, p.maxSpan), lines, p.maxSpan)
        if (Refine.cyclicShifts(c).contains(rt)) shifted += 1
        if (rt.encodedLength != c.encodedLength) unfolded += 1
      }
      val noiseDl = Mdl.noiseBaseline(lines)
      val got = Datamaran.evaluateBest(top, lines, p, noiseDl)
      assert(view(got) == view(SerialEvaluation.evaluateBest(top, lines, p, noiseDl)),
        s"seed $seed: evaluateBest")
      // a candidate scoring above 1.6 times an earlier one is left unrefined
      val initial = top.map(s => Refine.scored(s.template, lines, p.maxSpan)._3)
      if (initial.indices.exists(i => initial(i) > 1.6 * initial.take(i + 1).min)) cut += 1
    }
    info(s"shifted $shifted, unfolded $unfolded, cut active in $cut of 300")
    assert(shifted > 0 && unfolded > 0 && cut > 0)
  }

  test("a round of unfolds tied on score keeps the earliest candidate") {
    // six arrays with the same values: unfolding any one of them gives the
    // same score, and refinement stops after five rounds, so the array
    // left folded shows which of the tied candidates each round kept
    val arrays = Vector.tabulate(6)(i => TArray(Vector(F), ';', if (i < 5) ',' else '\n'))
    val t = Template(arrays)
    val lines = (0 until 100).map(i => Vector.fill(6)(s"${i % 7};${i * 13 % 101}").mkString(",")).toVector
    val cands = Refine.unfoldCandidates(t, Mdl.scan(t, lines, 10).arrays.map(_.counts))
    val scores = cands.map(c => Refine.scored(c, lines, 10)._3)
    assert(scores.count(_ == scores.min) == 6, scores)
    val (rt, _, _) = Refine.refine(Refine.scored(t, lines, 10), lines, 10)
    assert(rt.pretty == "F;F,F;F,F;F,F;F,F;F,(F;)*F\\n", rt.pretty)
    assert(sameAsSerial(t, lines, 10))
  }
}
