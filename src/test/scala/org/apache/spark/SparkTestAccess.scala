package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The two `private[spark]` hooks the extraction tests read: draining the
  * listener bus, so a listener has seen every job started so far, and the
  * broadcast values the driver's block manager holds. Lives in Spark's
  * package because both members are package-private.
  */
object SparkTestAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** The value of each broadcast the driver still holds. Read from the
    * memory store without a lock, so a later destroy is not held up.
    */
  def driverBroadcasts(sc: SparkContext): Seq[Any] = {
    val bm = sc.env.blockManager
    bm.getMatchingBlockIds(_.isBroadcast).collect { case b @ BroadcastBlockId(_, "") => b }
      .flatMap(b => bm.memoryStore.getValues(b).map(_.next()))
  }
}
