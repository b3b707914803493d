package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.loggen._
import repro.eval.Criteria

/** Fast end-to-end sanity checks, run first while developing. */
class SmokeSpec extends AnyFunSuite {

  test("reduce: csv record folds to (F,)*F\\n") {
    val t = MinimalTemplate("12,ab,3,xy\n", Set(',')).get
    assert(t.pretty == "(F,)*F\\n")
  }

  test("reduce: quoted csv folds to the §3.2 example") {
    val t = MinimalTemplate("1,\"a,b\",x\n", Set(',', '"')).get
    assert(t.pretty == "F,\"(F,)*F\",F\\n")
  }

  test("datamaran extracts a simple csv dataset") {
    val spec = DatasetSpec("smoke-csv", Label.SNI,
      Vector(Corpus.csvType(new scala.util.Random(1), 5) -> 1.0), 300, NoiseSpec.none, 7)
    val gt = LogSynth.generate(spec)
    val (inf, recs) = Datamaran.run(gt.lines, DmParams())
    assert(inf.types.nonEmpty, "no structure found")
    val j = Criteria.judge(gt, Criteria.fromDatamaran(recs))
    assert(j.success, j.reasons.mkString("; "))
  }

  test("datamaran extracts a multi-line crash-log dataset with noise") {
    val spec = DatasetSpec("smoke-crash", Label.MNI,
      Vector(Corpus.crashType(new scala.util.Random(2)) -> 1.0), 250, NoiseSpec.some(0.06), 9)
    val gt = LogSynth.generate(spec)
    val (inf, recs) = Datamaran.run(gt.lines, DmParams())
    assert(inf.types.nonEmpty, "no structure found")
    val j = Criteria.judge(gt, Criteria.fromDatamaran(recs))
    assert(j.success, j.reasons.mkString("; "))
  }

  test("datamaran finds no structure in messy noise (NS)") {
    val spec = DatasetSpec("smoke-ns", Label.NS, Vector.empty, 400, NoiseSpec(1.0, NoiseSpec.messy), 11)
    val gt = LogSynth.generate(spec)
    val (inf, recs) = Datamaran.run(gt.lines, DmParams())
    val j = Criteria.judge(gt, Criteria.fromDatamaran(recs))
    assert(j.success, s"types=${inf.types.map(_.template.pretty)}")
  }
}
