package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Reproduces Fig 14a + §5.2.2 prose: running time vs dataset size, greedy
  * vs exhaustive search, local vs distributed (Spark) extraction. The
  * paper's claim to verify: the three search steps are size-independent
  * once sampling kicks in, and total time is dominated by the (eminently
  * parallelizable) extraction for large datasets.
  */
class RuntimeVsSizeBench extends SparkSpec {

  test("Fig 14a: running time vs dataset size") {
    val fig = Experiments.runtimeVsSize(8.0, spark)
    println(fig.text)
    val rows = fig.rows

    // search time is bounded by the sample, so it must NOT scale with size
    val s1 = rows.head.exhaustiveSearchMs.toDouble
    val s8 = rows.last.exhaustiveSearchMs.toDouble
    assert(s8 <= s1 * 4 + 3000, f"search should be ~size-independent: $s1%.0f -> $s8%.0f")
    // extraction scales with size: at 8MB it must dominate the search
    assert(rows.last.localExtractMs + rows.last.sparkExtractMs > 0)
    val extract8 = rows.last.localExtractMs.toDouble
    val extract1 = rows.head.localExtractMs.toDouble
    assert(extract8 >= extract1 * 3, f"extraction should scale: $extract1%.0f -> $extract8%.0f")
  }
}
