package repro.jobs

import repro.exp.Experiments

/** Reproduces §5.2 on the 25 manual-dataset analogs (Table 5 shape +
  * §5.2.1 accuracy + Fig 14b structural-complexity column).
  */
object ManualDatasetsJob {
  def main(args: Array[String]): Unit = println(Experiments.manualDatasets().text)
}
