package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Reproduces Table 5 (dataset characteristics) + §5.2.1 (25/25 successful
  * extractions) + the Fig 14b structural-complexity column on the 25
  * manual-dataset analogs.
  */
class ManualDatasetsBench extends AnyFunSuite {

  test("Table 5 + §5.2.1 + Fig 14b: manual datasets") {
    val fig = Experiments.manualDatasets()
    println(fig.text)
    val okE = fig.rows.count(_.dmExhaustive)
    assert(okE >= 23, s"paper reports 25/25; we require >= 23, got $okE")
  }
}
