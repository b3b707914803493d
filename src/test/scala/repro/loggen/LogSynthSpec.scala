package repro.loggen

import org.scalatest.funsuite.AnyFunSuite

/** Synthetic corpus generator: determinism, ground-truth consistency,
  * corpus composition.
  */
class LogSynthSpec extends AnyFunSuite {

  private val r = new scala.util.Random(1)
  private val spec = DatasetSpec("t", Label.SNI,
    Vector(Corpus.apacheType(r) -> 1.0), 300, NoiseSpec.some(0.1), 99)

  test("generation is deterministic in the spec") {
    val a = LogSynth.generate(spec)
    val b = LogSynth.generate(spec)
    assert(a.lines == b.lines)
    assert(a.records == b.records)
  }

  test("different seeds give different data") {
    val a = LogSynth.generate(spec)
    val b = LogSynth.generate(spec.copy(seed = 100))
    assert(a.lines != b.lines)
  }

  test("record spans partition the non-noise lines") {
    val gt = LogSynth.generate(spec)
    // records are disjoint, in order, and every other block is one noise line
    assert(gt.records.zip(gt.records.drop(1)).forall { case (a, b) => a.end < b.start })
    val recordLines = gt.records.map(r => r.end - r.start + 1).sum
    assert(gt.lines.length == recordLines + (spec.nBlocks - gt.records.length))
  }

  test("targets are substrings of their record text") {
    val gt = LogSynth.generate(spec)
    for (rec <- gt.records.take(50)) {
      val text = (rec.start to rec.end).map(gt.lines).mkString("\n")
      for ((name, v) <- rec.targets)
        assert(text.contains(v), s"target $name=$v not in record text")
    }
  }

  test("multi-line types have fixed spans matching the spec") {
    val r2 = new scala.util.Random(2)
    val t = Corpus.crashType(r2)
    val gt = LogSynth.generate(DatasetSpec("c", Label.MNI, Vector(t -> 1.0), 100, NoiseSpec.none, 5))
    assert(gt.records.forall(r => r.end - r.start + 1 == t.span))
  }

  test("noise rate is approximately honored") {
    val gt = LogSynth.generate(spec.copy(nBlocks = 4000))
    val frac = (gt.spec.nBlocks - gt.records.length).toDouble / gt.spec.nBlocks
    assert(math.abs(frac - 0.1) < 0.03, s"noise fraction $frac")
  }

  test("sizeChars counts newlines") {
    val gt = LogSynth.generate(spec.copy(nBlocks = 10, noise = NoiseSpec.none))
    assert(gt.sizeChars == gt.lines.map(_.length + 1L).sum)
    assert(gt.text.length.toLong == gt.sizeChars)
  }

  test("renderRecord produces the spec's line count and target names") {
    val t = Corpus.jsonType(new scala.util.Random(3), 1)
    val (lines, targets) = LogSynth.renderRecord(t, new scala.util.Random(7))
    assert(lines.length == t.span)
    val targetNames = t.lines.flatten.collect { case Target(n, _) => n }
    assert(targets.map(_._1) == targetNames)
  }

  test("messy noise varies structurally") {
    val rr = new scala.util.Random(11)
    val lines = (0 until 200).map(_ => NoiseSpec.messy(rr))
    assert(lines.distinct.size > 190)
    assert(lines.forall(_.exists(_.isLetterOrDigit)))
  }

  // ---- corpus composition

  test("manual25 has 25 datasets with unique ids") {
    val m = Corpus.manual25
    assert(m.length == 25)
    assert(m.map(_.id).distinct.length == 25)
  }

  test("manual25 spans mirror Table 5's shape") {
    val m = Corpus.manual25
    val bySpan = m.map(s => s.types.map(_._1.span).maxOption.getOrElse(1))
    assert(bySpan.max == 10)
    assert(m.count(_.types.length == 2) >= 3) // some interleaved datasets
  }

  test("github100 has exactly the Fig 17a category mix") {
    val g = Corpus.github100
    assert(g.length == 100)
    val counts = g.groupBy(_.label).view.mapValues(_.length).toMap
    assert(counts(Label.SNI) == 44)
    assert(counts(Label.SI) == 14)
    assert(counts(Label.MNI) == 13)
    assert(counts(Label.MI) == 18)
    assert(counts(Label.NS) == 11)
  }

  test("github100 multi-line fraction is 31% and interleaved 32%") {
    val g = Corpus.github100
    assert(g.count(s => s.label == Label.MNI || s.label == Label.MI) == 31)
    assert(g.count(s => s.label == Label.SI || s.label == Label.MI) == 32)
  }

  test("github100 embeds the documented failure probes") {
    val g = Corpus.github100
    val spans = g.map(s => s.types.map(_._1.span).maxOption.getOrElse(1))
    assert(spans.max >= 11) // over-long records beyond L=10
    assert(g.exists(_.types.exists(_._1.name == "wshort"))) // twin probe
  }

  test("github100 ids are unique and deterministic") {
    val a = Corpus.github100.map(_.id)
    assert(a.distinct.length == 100)
    assert(a == Corpus.github100.map(_.id))
  }

  test("S-labelled github datasets only contain single-line types") {
    val g = Corpus.github100
    for (s <- g if s.label == Label.SNI || s.label == Label.SI)
      assert(s.types.forall(_._1.span == 1), s.id)
  }

  test("M-labelled github datasets contain a multi-line type") {
    val g = Corpus.github100
    for (s <- g if s.label == Label.MNI || s.label == Label.MI)
      assert(s.types.exists(_._1.span > 1), s.id)
  }

  test("interleaved github datasets have at least two types") {
    val g = Corpus.github100
    for (s <- g if s.label == Label.SI || s.label == Label.MI)
      assert(s.types.length >= 2, s.id)
  }
}
