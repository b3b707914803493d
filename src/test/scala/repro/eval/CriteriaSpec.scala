package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.loggen._

/** The §5.1/§9.3 success criterion, including the Figure 13 examples. */
class CriteriaSpec extends AnyFunSuite {

  private def fs(p: String, v: String) = Seg(s"F:$p", v)
  private def lit(s: String) = Seg(s"L:$s", s)

  // ---- reconstructible

  test("fig 13: separated targets are reconstructible") {
    // [01:05:02] 192.168.0.1 with template [F:F:F] F.F.F.F
    def segsOf(h: String, m: String, s: String, ip: Seq[String]) = Vector(
      lit("["), fs("f0", h), lit(":"), fs("f1", m), lit(":"), fs("f2", s), lit("]"), lit(" "),
      fs("f3", ip(0)), lit("."), fs("f4", ip(1)), lit("."), fs("f5", ip(2)), lit("."), fs("f6", ip(3)),
      lit("\n"))
    val recs = Vector(
      (segsOf("01", "05", "02", Seq("192", "168", "0", "1")), "01:05:02"),
      (segsOf("13", "59", "59", Seq("10", "0", "0", "200")), "13:59:59"))
    assert(Criteria.reconstructible(recs))
    val ips = Vector(
      (segsOf("01", "05", "02", Seq("192", "168", "0", "1")), "192.168.0.1"),
      (segsOf("13", "59", "59", Seq("10", "0", "0", "200")), "10.0.0.200"))
    assert(Criteria.reconstructible(ips))
  }

  test("fig 13: targets extracted together are NOT reconstructible") {
    // single blob field "[01:05:02] 192.168.0.1" cannot yield just the time
    // because the trim would need a variable-length suffix
    val recs = Vector(
      (Vector(fs("f0", "[01:05:02] 192.168.0.1"), lit("\n")), "01:05:02"),
      (Vector(fs("f0", "[13:59:59] 10.0.0.200"), lit("\n")), "13:59:59"))
    assert(!Criteria.reconstructible(recs))
  }

  test("constant trims on a single field are allowed") {
    // fixed-width content: trimming a constant prefix/suffix is Trim()
    val recs = Vector(
      (Vector(fs("f0", "id=12345;")), "12345"),
      (Vector(fs("f0", "id=67890;")), "67890"))
    assert(Criteria.reconstructible(recs))
  }

  test("constant-width context IS trimmable even inside one field") {
    // prefix "id=" and suffix ";" have constant width: Trim(3, 1) works
    val recs = Vector(
      (Vector(fs("f0", "id=1;")), "1"),
      (Vector(fs("f0", "id=23456;")), "23456"))
    assert(Criteria.reconstructible(recs))
  }

  test("variable-width context defeats constant trims") {
    val recs = Vector(
      (Vector(fs("f0", "ab1cde")), "1"),
      (Vector(fs("f0", "a23456fg")), "23456"))
    assert(!Criteria.reconstructible(recs))
  }

  test("array segments reconstruct glued targets (GroupConcat)") {
    def arr(vals: Vector[String]) = Seg("A:a0", vals.mkString(" "))
    val recs = Vector(
      (Vector(lit("msg: "), arr(Vector("hello", "there")), lit("\n")), "hello there"),
      (Vector(lit("msg: "), arr(Vector("one", "two", "three")), lit("\n")), "one two three"))
    assert(Criteria.reconstructible(recs))
  }

  test("run may span literals between fields") {
    val recs = Vector(
      (Vector(fs("f0", "2016-01-02"), lit(" "), fs("f1", "10:00:00")), "2016-01-02 10:00:00"),
      (Vector(fs("f0", "2017-03-04"), lit(" "), fs("f1", "23:59:01")), "2017-03-04 23:59:01"))
    assert(Criteria.reconstructible(recs))
  }

  test("reconstruction fails when the target straddles a variable field partially") {
    val recs = Vector(
      (Vector(fs("f0", "abc"), fs("f1", "123")), "c1"),
      (Vector(fs("f0", "defgh"), fs("f1", "456")), "h4"))
    assert(!Criteria.reconstructible(recs))
  }

  test("empty record list is vacuously reconstructible") {
    assert(Criteria.reconstructible(Vector.empty))
  }

  // ---- judge, end to end

  private def dmJudge(gt: GtDataset, p: DmParams): Criteria.Judgement = {
    val (_, recs) = Datamaran.run(gt.lines, p)
    Criteria.judge(gt, Criteria.fromDatamaran(recs))
  }

  test("judge: NS dataset succeeds only when nothing is extracted") {
    val gt = LogSynth.generate(DatasetSpec("ns", Label.NS, Vector.empty, 50,
      NoiseSpec(1.0, NoiseSpec.messy), 1))
    assert(Criteria.judge(gt, Vector.empty).success)
    val fake = Vector(Criteria.EvalRecord("t0", 0, 0,
      Vector(fs("f0", gt.lines(0)), lit("\n"))))
    assert(!Criteria.judge(gt, fake).success)
  }

  test("judge: wrong boundaries fail criterion (a)") {
    val r = new scala.util.Random(1)
    val gt = LogSynth.generate(DatasetSpec("b", Label.MNI,
      Vector(Corpus.crashType(r) -> 1.0), 40, NoiseSpec.none, 2))
    // pretend every line is a record (RecordBreaker-style)
    val fake = gt.lines.indices.map(i =>
      Criteria.EvalRecord("t0", i, i, Vector(fs("f0", gt.lines(i)), lit("\n")))).toVector
    val j = Criteria.judge(gt, fake)
    assert(!j.success)
    assert(j.reasons.exists(_.contains("boundaries")))
  }

  test("judge: merging two gt types into one template fails (a)") {
    val r = new scala.util.Random(2)
    val gt = LogSynth.generate(DatasetSpec("m", Label.SI,
      Vector(Corpus.wordsShort(r) -> 1.0, Corpus.wordsLong(r) -> 1.0), 60, NoiseSpec.none, 3))
    // one template key for everything, boundaries correct
    val fake = gt.records.map { rec =>
      Criteria.EvalRecord("only", rec.start, rec.end,
        Vector(fs("f0", gt.lines(rec.start)), lit("\n")))
    }
    val j = Criteria.judge(gt, fake)
    assert(!j.success)
    assert(j.reasons.exists(_.contains("merged")))
  }

  test("judge: splitting one gt type across templates fails (a)") {
    val r = new scala.util.Random(3)
    val gt = LogSynth.generate(DatasetSpec("s", Label.SNI,
      Vector(Corpus.pipeType(r) -> 1.0), 60, NoiseSpec.none, 4))
    val fake = gt.records.zipWithIndex.map { case (rec, i) =>
      Criteria.EvalRecord(if (i % 2 == 0) "t0" else "t1", rec.start, rec.end,
        Vector(fs("f0", gt.lines(rec.start)), lit("\n")))
    }
    val j = Criteria.judge(gt, fake)
    assert(!j.success)
    assert(j.reasons.exists(_.contains("split")))
  }

  test("judge: spurious records on noise lines fail (a)") {
    val r = new scala.util.Random(4)
    val gt = LogSynth.generate(DatasetSpec("sp", Label.SNI,
      Vector(Corpus.pipeType(r) -> 1.0), 80, NoiseSpec.some(0.2), 5))
    val good = gt.records.map { rec =>
      Criteria.EvalRecord("t0", rec.start, rec.end,
        Vector(fs("f0", gt.lines(rec.start)), lit("\n")))
    }
    val noiseIdx = gt.lines.indices.find(i => !gt.records.exists(r => r.start <= i && i <= r.end)).get
    val withSpurious = good :+ Criteria.EvalRecord("t0", noiseIdx, noiseIdx,
      Vector(fs("f0", gt.lines(noiseIdx)), lit("\n")))
    // note: even `good` fails (b) because the blob field merges targets,
    // but the spurious record must be flagged under (a) first
    val j = Criteria.judge(gt, withSpurious)
    assert(!j.success)
    assert(j.reasons.exists(_.contains("do not match any ground-truth")))
  }

  test("judge: full DATAMARAN pass on a clean dataset succeeds") {
    val r = new scala.util.Random(5)
    val gt = LogSynth.generate(DatasetSpec("ok", Label.SNI,
      Vector(Corpus.kvType(r) -> 1.0), 300, NoiseSpec.none, 6))
    val j = dmJudge(gt, DmParams())
    assert(j.success, j.reasons)
  }

  test("fromDatamaran keys records by type index") {
    val t = Template(Vector(TField, TChar(','), TField, TChar('\n')))
    val recs = Datamaran.extract(Vector("a,b", "c,d"), Vector(t), 10)
    val ev = Criteria.fromDatamaran(recs)
    assert(ev.map(_.typeKey).distinct == Vector("dm0"))
    assert(ev.map(_.start) == Vector(0, 1))
  }
}
