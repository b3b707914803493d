package repro.jobs

import repro.exp.Experiments

/** Reproduces Table 1 behaviourally: which assumptions each system needs,
  * probed by datasets violating exactly one assumption each.
  */
object AssumptionChartJob {
  def main(args: Array[String]): Unit = println(Experiments.assumptionChart().text)
}
