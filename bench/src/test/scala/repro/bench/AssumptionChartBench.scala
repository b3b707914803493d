package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Reproduces Table 1 (the assumption comparison chart) behaviourally:
  * a system "needs" an assumption iff it fails a probe dataset violating
  * exactly that assumption while handling the control dataset.
  *
  * Paper's chart: Coverage Threshold — RB No / DM Yes; Non-overlapping —
  * Yes / Yes; Structural Form — Yes / Yes; Boundary — Yes / No;
  * Tokenization — Yes / No.
  */
class AssumptionChartBench extends AnyFunSuite {

  test("Table 1: assumption comparison chart") {
    val fig = Experiments.assumptionChart()
    println(fig.text)
    val (rows, dmCtrl, rbCtrl) = fig.rows

    assert(dmCtrl && rbCtrl, "both systems must handle the control dataset")
    def row(a: String) = rows.find(_.assumption == a).get
    assert(row("Coverage Threshold").dmNeedsIt, "DM enforces the alpha threshold")
    assert(!row("Coverage Threshold").rbNeedsIt, "RB reports the probe's type as one struct")
    assert(row("Boundary").rbNeedsIt && !row("Boundary").dmNeedsIt)
    assert(row("Tokenization").rbNeedsIt && !row("Tokenization").dmNeedsIt)
  }
}
