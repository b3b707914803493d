package repro.jobs

import repro.exp.Experiments

/** Reproduces the GitHub-corpus accuracy results (paper Fig 17a/17b and the
  * §5.3.2 headline 95.5% vs 29.2%) on the synthetic GitHub-analog corpus.
  *
  * Usage: GitHubAccuracyJob [nDatasets]
  */
object GitHubAccuracyJob {
  def main(args: Array[String]): Unit =
    println(Experiments.gitHubAccuracy(if (args.nonEmpty) args(0).toInt else 100).text)
}
