package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Reproduces Fig 15 (runtime vs parameters M, alpha, L) and Fig 16 (how
  * often the returned structure is the optimal — best-MDL — one, as a
  * function of the parameters).
  */
class ParamSensitivityBench extends AnyFunSuite {

  test("Fig 15 + Fig 16: parameter sensitivity") {
    val fig = Experiments.paramSensitivity()
    println(fig.text)

    val m = fig.rows.filter(_.param == "M")
    // more candidates evaluated -> can only help finding the optimum
    assert(m.last.optimalFoundPct >= m.head.optimalFoundPct - 1e-9)
    // and costs more time
    assert(m.last.avgSearchMs >= m.head.avgSearchMs * 0.8)
    // robustness: with default M=50 the optimum is found most of the time
    val m50 = m.find(_.value == "50").get
    assert(m50.optimalFoundPct >= 60.0, s"M=50 optimal-found ${m50.optimalFoundPct}")
  }
}
