package repro.jobs

import repro.exp.Experiments

/** Reproduces Table 3: empirical step timings under sweeps of the variable
  * that governs each step's complexity bound.
  */
object StepComplexityJob {
  def main(args: Array[String]): Unit = println(Experiments.stepComplexity().text)
}
