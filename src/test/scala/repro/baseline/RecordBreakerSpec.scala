package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.loggen._
import repro.eval.Criteria

/** RecordBreaker baseline behaviour — embodies Assumptions 4 and 5. */
class RecordBreakerSpec extends AnyFunSuite {

  test("clean csv clusters into a single struct") {
    val lines = (0 until 100).map(i => s"$i,${i * 2},x$i").toVector
    val res = RecordBreaker.run(lines)
    assert(res.structs.length == 1)
    assert(res.structs.head.lineIdxs.length == 100)
    assert(res.unexplained.isEmpty)
  }

  test("lines of different shapes that reduce to one template share a struct") {
    // "a b" and "a b c" differ in shape but both reduce to (F )*F\n
    val lines = (0 until 60).map(i => if (i % 2 == 0) s"a$i b$i" else s"a$i b$i c$i").toVector
    val res = RecordBreaker.run(lines)
    assert(res.structs.length == 1)
    assert(res.structs.head.lineIdxs == lines.indices.toVector)
    assert(res.structs.head.template.pretty == "(F )*F\\n")
    assert(res.unexplained.isEmpty)
  }

  test("two interleaved single-line formats give two structs") {
    val lines = (0 until 100).map { i =>
      if (i % 2 == 0) s"$i,${i * 2}" else s"k=v$i"
    }.toVector
    val res = RecordBreaker.run(lines)
    assert(res.structs.length == 2)
  }

  test("variable dashed ids split one type across clusters (Assumption 5)") {
    val r = new scala.util.Random(1)
    // the dashed id sits mid-line: leftmost folding produces a different
    // template shape per group count, so the fixed lexer splits the type
    val lines = (0 until 200).map { i =>
      s"row $i req ${FieldGen.dashedId(r)} from host$i"
    }.toVector
    val res = RecordBreaker.run(lines)
    assert(res.structs.length > 1)
  }

  test("low-support lines fall into the catch-all") {
    val lines = (0 until 99).map(i => s"$i,$i").toVector :+ "??weird??line!!"
    val res = RecordBreaker.run(lines)
    assert(res.unexplained == Vector(99))
  }

  test("field-less lines are unexplained") {
    val lines = Vector("1,2", "+", "3,4")
    val res = RecordBreaker.run(lines)
    assert(res.unexplained.contains(1))
  }

  test("parseLine reproduces the line's field values") {
    val lines = (0 until 50).map(i => s"$i|x$i").toVector
    val res = RecordBreaker.run(lines)
    val parsed = RecordBreaker.parseLine(res.structs.head, lines(7))
    assert(parsed.rows == Vector(Relational.TableRow(-1, "", "", Vector("7", "x7"))))
  }

  test("constant-count arrays are unfolded into structs (Fisher's rule)") {
    val lines = (0 until 80).map(i => s"$i,${i * 3},x$i").toVector
    val res = RecordBreaker.run(lines)
    assert(res.structs.length == 1)
    assert(res.structs.head.template.pretty == "F,F,F\\n")
  }

  test("multi-line records are reported line by line (Assumption 4)") {
    val r = new scala.util.Random(2)
    val gt = LogSynth.generate(DatasetSpec("mb", Label.MNI,
      Vector(Corpus.crashType(r) -> 1.0), 150, NoiseSpec.none, 3))
    val res = RecordBreaker.run(gt.lines)
    val ev = Criteria.fromRecordBreaker(res, gt.lines)
    assert(ev.forall(r => r.start == r.end)) // single-line records only
    val j = Criteria.judge(gt, ev)
    assert(!j.success) // boundaries can never match multi-line ground truth
  }

  test("clean single-line dataset passes the evaluation criterion") {
    val r = new scala.util.Random(3)
    val gt = LogSynth.generate(DatasetSpec("cs", Label.SNI,
      Vector(Corpus.pipeType(r) -> 1.0), 300, NoiseSpec.none, 4))
    val j = Criteria.judge(gt, Criteria.fromRecordBreaker(RecordBreaker.run(gt.lines), gt.lines))
    assert(j.success, j.reasons)
  }

  test("noisy dataset fails the criterion through catch-all false positives") {
    val r = new scala.util.Random(4)
    val gt = LogSynth.generate(DatasetSpec("ns", Label.SNI,
      Vector(Corpus.pipeType(r) -> 1.0), 400, NoiseSpec.some(0.15), 5))
    val j = Criteria.judge(gt, Criteria.fromRecordBreaker(RecordBreaker.run(gt.lines), gt.lines))
    assert(!j.success)
  }

  test("fixed charset is the full candidate set") {
    assert(RecordBreaker.FixedCharSet == Chars.Candidates)
  }
}
