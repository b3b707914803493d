package repro.jobs

import repro.exp.Experiments

/** Reproduces Fig 15 (runtime vs parameters) and Fig 16 (fraction of
  * datasets where the optimal — best-MDL — structure is found) on a subset
  * of the manual-dataset analogs.
  *
  * Usage: ParamSweepJob [nDatasets]
  */
object ParamSweepJob {
  def main(args: Array[String]): Unit =
    println(Experiments.paramSensitivity(if (args.nonEmpty) args(0).toInt else 12).text)
}
