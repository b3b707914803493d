package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.loggen.Label

/** Reproduces Table 4 + Fig 17a (corpus labels/distribution) and Fig 17b +
  * the §5.3.2 headline (DATAMARAN 95.5% vs RecordBreaker 29.2%) on the
  * synthetic GitHub-analog corpus. Paper-vs-measured is recorded in
  * EXPERIMENTS.md.
  */
class GitHubAccuracyBench extends AnyFunSuite {

  test("Fig 17a/17b: GitHub corpus accuracy, DATAMARAN vs RecordBreaker") {
    val fig = Experiments.gitHubAccuracy()
    println(fig.text)
    val cats = fig.rows

    val overall = cats.last
    // shape assertions: which system wins, by roughly what factor, and the
    // categorical zero for RecordBreaker on multi-line datasets
    assert(overall.dmExhaustive >= 85.0, s"DM exhaustive overall ${overall.dmExhaustive}")
    assert(overall.rb <= 55.0, s"RB overall ${overall.rb}")
    assert(overall.dmExhaustive >= overall.rb + 40.0, "DM must beat RB by a wide margin")
    assert(overall.dmExhaustive >= overall.dmGreedy - 1e-9, "exhaustive >= greedy")
    val mni = cats.find(_.category == Label.MNI.show).get
    val mi = cats.find(_.category == Label.MI.show).get
    assert(mni.rb == 0.0 && mi.rb == 0.0, "RecordBreaker cannot handle multi-line records")
  }
}
