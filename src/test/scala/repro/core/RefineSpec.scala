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
    val (t, sc, _) = Refine.refine(csvArr, lines, 10, 0.0, Double.MaxValue)
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
    val (t, _, _) = Refine.refine(csvArr, lines, 10, 0.0, Double.MaxValue)
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
    val (t, _, scoreRefined) = Refine.refine(arr, lines, 10, 0.0, Double.MaxValue)
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
    val (t, sc, _) = Refine.refine(shifted, lines, 10, 0.0, Double.MaxValue)
    assert(sc.firstStart == 0, s"refined=${t.pretty} first=${sc.firstStart}")
    assert(t.pretty.startsWith("H="), t.pretty)
  }
}
