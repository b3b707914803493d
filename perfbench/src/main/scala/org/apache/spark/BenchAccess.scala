package org.apache.spark

/** Access to the one `private[spark]` hook the benchmark needs: draining the
  * listener bus, so that a file's Spark metrics are complete before they are
  * read. Lives in Spark's package because the member is package-private.
  */
object BenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
