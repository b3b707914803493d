package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.loggen._
import repro.eval.Criteria

/** End-to-end DATAMARAN behaviour on controlled datasets. */
class DatamaranSpec extends AnyFunSuite {

  private val p = DmParams()

  private def gen(spec: DatasetSpec): GtDataset = LogSynth.generate(spec)

  private def judge(gt: GtDataset, params: DmParams = p): Criteria.Judgement = {
    val (_, recs) = Datamaran.run(gt.lines, params)
    Criteria.judge(gt, Criteria.fromDatamaran(recs))
  }

  test("single-line apache-like dataset extracts successfully") {
    val gt = gen(DatasetSpec("a", Label.SNI,
      Vector(Corpus.apacheType(new scala.util.Random(1)) -> 1.0), 400, NoiseSpec.none, 1))
    val j = judge(gt)
    assert(j.success, j.reasons)
  }

  test("single-line dataset with noise extracts successfully") {
    val gt = gen(DatasetSpec("b", Label.SNI,
      Vector(Corpus.kvType(new scala.util.Random(2)) -> 1.0), 500, NoiseSpec.some(0.12), 2))
    val j = judge(gt)
    assert(j.success, j.reasons)
  }

  test("record boundaries are exact for multi-line records") {
    val gt = gen(DatasetSpec("c", Label.MNI,
      Vector(Corpus.jsonType(new scala.util.Random(3), 2) -> 1.0), 200, NoiseSpec.none, 3))
    val (inf, recs) = Datamaran.run(gt.lines, p)
    assert(inf.types.length == 1)
    assert(recs.map(r => (r.start, r.start + r.span - 1)) ==
      gt.records.map(r => (r.start, r.end)))
  }

  test("interleaved single-line types are both recovered") {
    val r = new scala.util.Random(4)
    val gt = gen(DatasetSpec("d", Label.SI,
      Vector(Corpus.apacheType(r) -> 1.0, Corpus.kvType(r) -> 0.8), 600, NoiseSpec.none, 4))
    val (inf, recs) = Datamaran.run(gt.lines, p)
    assert(inf.types.length == 2, inf.types.map(_.template.pretty))
    val j = Criteria.judge(gt, Criteria.fromDatamaran(recs))
    assert(j.success, j.reasons)
  }

  test("interleaved multi-line types are both recovered") {
    val r = new scala.util.Random(5)
    val gt = gen(DatasetSpec("e", Label.MI,
      Vector(Corpus.crashType(r) -> 1.0, Corpus.syslogType(r) -> 0.8), 400, NoiseSpec.some(0.05), 5))
    val j = judge(gt)
    assert(j.success, j.reasons)
  }

  test("pure noise yields no structure (MDL noise baseline)") {
    val gt = gen(DatasetSpec("f", Label.NS, Vector.empty, 400, NoiseSpec(1.0, NoiseSpec.messy), 6))
    val (inf, recs) = Datamaran.run(gt.lines, p)
    assert(inf.types.isEmpty, inf.types.map(_.template.pretty))
    assert(recs.isEmpty)
  }

  test("free word text yields no structure (string fields beat nothing)") {
    val gt = gen(DatasetSpec("g", Label.NS,
      Vector(Corpus.freeTextType(new scala.util.Random(7)) -> 1.0), 400, NoiseSpec.none, 7))
    val (inf, _) = Datamaran.run(gt.lines, p)
    assert(inf.types.isEmpty, inf.types.map(_.template.pretty))
  }

  test("records longer than L lines are not extracted (documented failure cause)") {
    val gt = gen(DatasetSpec("h", Label.MNI,
      Vector(Corpus.multiType(new scala.util.Random(8), 12, "long") -> 1.0), 150, NoiseSpec.none, 8))
    val j = judge(gt)
    assert(!j.success)
  }

  test("raising L recovers the long-record dataset (noise-separated)") {
    // back-to-back over-long records stay ambiguous even at larger L (the
    // paper's documented failure cause has no general fix); with noise
    // between records the aligned boundary is identifiable
    val gt = gen(DatasetSpec("i", Label.MNI,
      Vector(Corpus.multiType(new scala.util.Random(8), 12, "long") -> 1.0), 150,
      NoiseSpec.some(0.15), 8))
    val j = judge(gt, p.copy(maxSpan = 14))
    assert(j.success, j.reasons)
  }

  test("word-array twin types collapse into one template (§9.4 cause)") {
    val r = new scala.util.Random(9)
    val gt = gen(DatasetSpec("j", Label.SI,
      Vector(Corpus.wordsShort(r) -> 1.0, Corpus.wordsLong(r) -> 0.9), 500, NoiseSpec.some(0.05), 9))
    val j = judge(gt)
    assert(!j.success) // the generic (F )*F template merges the two types
  }

  test("coverage below alpha is not reported") {
    val r = new scala.util.Random(10)
    val gt = gen(DatasetSpec("k", Label.NS,
      Vector(Corpus.kvType(r) -> 1.0), 1300, NoiseSpec(0.975, NoiseSpec.messy), 10))
    val (inf, _) = Datamaran.run(gt.lines, p)
    assert(inf.types.isEmpty)
  }

  test("alpha=2% reports the same low-coverage type") {
    val r = new scala.util.Random(10)
    val gt = gen(DatasetSpec("l", Label.NS,
      Vector(Corpus.kvType(r) -> 1.0), 1300, NoiseSpec(0.975, NoiseSpec.messy), 10))
    val (inf, _) = Datamaran.run(gt.lines, p.copy(alpha = 0.02))
    assert(inf.types.nonEmpty)
  }

  test("extract consumes records greedily and leaves noise alone") {
    val t = Template(Vector(TField, TChar(','), TField, TChar('\n')))
    val lines = Vector("a,b", "junk line", "c,d")
    val recs = Datamaran.extract(lines, Vector(t), 10)
    assert(recs.map(_.start) == Vector(0, 2))
  }

  test("extract gives priority to earlier templates") {
    val t1 = Template(Vector(TField, TChar(','), TField, TChar('\n')))
    val t2 = Template(Vector(TArray(Vector(TField), ',', '\n')))
    val lines = Vector("a,b", "a,b,c")
    val recs = Datamaran.extract(lines, Vector(t1, t2), 10)
    assert(recs.map(_.typeIdx) == Vector(0, 1))
  }

  test("the cover places the first template in priority order") {
    val t1 = Template(Vector(TField, TChar(','), TField, TChar('\n')))
    val t2 = Template(Vector(TArray(Vector(TField), ',', '\n')))
    def typeAndSpan(line: String) = {
      val c = new Datamaran.Cover(Vector(line), Vector(t1, t2), 10, 0, 1)
      Option.when(c.advance())((c.typeIdx, c.span))
    }
    assert(typeAndSpan("x,y").contains((0, 1)))
    assert(typeAndSpan("x,y,z").contains((1, 1)))
  }

  test("timings are accumulated and non-negative") {
    val gt = gen(DatasetSpec("m", Label.SNI,
      Vector(Corpus.csvType(new scala.util.Random(11), 4) -> 1.0), 200, NoiseSpec.none, 11))
    val (inf, _) = Datamaran.run(gt.lines, p)
    val t = inf.timings
    assert(t.generationMs >= 0 && t.pruningMs >= 0 && t.evaluationMs >= 0 && t.extractionMs >= 0)
    // each sum is rounded down to milliseconds once, from nanoseconds
    assert(t.searchMs == (t.generationNs + t.pruningNs + t.evaluationNs) / 1000000L)
  }

  test("sub-millisecond steps add up before rounding") {
    val step = StepTimings(600000L, 0, 0, 0) // 0.6 ms of generation
    assert(step.generationMs == 0)
    assert((step + step).generationMs == 1)
  }

  test("greedy and exhaustive agree on a simple csv dataset") {
    val gt = gen(DatasetSpec("n", Label.SNI,
      Vector(Corpus.csvType(new scala.util.Random(12), 5) -> 1.0), 300, NoiseSpec.none, 12))
    val (infE, _) = Datamaran.run(gt.lines, p)
    val (infG, _) = Datamaran.run(gt.lines, p.copy(exhaustive = false))
    assert(infE.types.map(_.template.canonical) == infG.types.map(_.template.canonical))
  }

  test("inference on the sample only (sampleMaxChars) still finds the type") {
    val gt = gen(DatasetSpec("o", Label.SNI,
      Vector(Corpus.csvType(new scala.util.Random(13), 5) -> 1.0), 4000, NoiseSpec.none, 13))
    val inf = Datamaran.infer(gt.lines, p.copy(sampleMaxChars = 20000))
    assert(inf.types.length == 1)
    assert(inf.sampleLineCount < gt.lines.length)
  }

  test("theorem 4.1 conditions: dominant template is returned") {
    // conditions (a)-(c): one clearly dominant, regular type; DATAMARAN must
    // return it as the optimal structure template
    val gt = gen(DatasetSpec("p", Label.SNI,
      Vector(Corpus.pipeType(new scala.util.Random(14)) -> 1.0), 500, NoiseSpec.some(0.08), 14))
    val (inf, recs) = Datamaran.run(gt.lines, p)
    assert(inf.types.length == 1)
    // every ground-truth record matched
    assert(recs.length == gt.records.length)
  }
}
