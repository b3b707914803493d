package perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.scheduler._

/** Spark engine counters, gathered by a listener the benchmark registers.
  * Counters only move while `active`, so set-up and correctness-gate jobs do
  * not count. Events arrive on the listener-bus thread; read after
  * [[org.apache.spark.BenchAccess.drainListeners]].
  */
final class SparkStats extends SparkListener {
  @volatile var active = false
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskRunMs = 0L
  var taskCpuNs = 0L
  var resultBytes = 0L
  var shuffleWriteBytes = 0L
  /** Completed stage intervals, epoch milliseconds. */
  val stageIntervals = ArrayBuffer.empty[(Long, Long)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (active) jobs += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (active) {
      stages += 1
      val si = e.stageInfo
      for (s <- si.submissionTime; c <- si.completionTime) stageIntervals += ((s, c))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (active) {
      tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        taskRunMs += m.executorRunTime
        taskCpuNs += m.executorCpuTime
        resultBytes += m.resultSize
        shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }
}

/** Driver JVM counters: collection time, bytes allocated by the client
  * thread, and the highest live heap seen while `active`. Live heap is the
  * heap in use right after a collection, so it leaves out uncollected
  * garbage; [[settle]] runs a full collection before each file, so old-generation
  * garbage from earlier files does not count either, and its result is the
  * first sample of the file.
  */
final class JvmStats {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val memBean = ManagementFactory.getMemoryMXBean
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  @volatile var active = false
  @volatile private var peakBytes = 0L

  private def notePeak(used: Long): Unit = synchronized {
    if (used > peakBytes) peakBytes = used
  }

  private val gcListener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (active && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        notePeak(info.getGcInfo.getMemoryUsageAfterGc.asScala.valuesIterator.map(_.getUsed).sum)
      }
  }
  gcBeans.foreach {
    case e: NotificationEmitter => e.addNotificationListener(gcListener, null, null)
    case _                      => ()
  }

  /** Full collection before a file is timed; its live heap counts as a sample. */
  def settle(): Unit = {
    System.gc()
    notePeak(memBean.getHeapMemoryUsage.getUsed)
  }

  def peakHeapBytes: Long = peakBytes
  def gcMillis: Long = gcBeans.iterator.map(b => math.max(0L, b.getCollectionTime)).sum
  def threadAllocatedBytes: Long = threadBean.getThreadAllocatedBytes(Thread.currentThread.getId)
}
