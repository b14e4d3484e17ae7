package repro.coverbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** JVM counters read around a measured call, from outside the program. */
object Jvm {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private val MiB = 1024.0 * 1024.0

  /** Collect garbage and restart the heap-pool peaks, so a following
    * [[peakHeapMb]] covers only what runs after this call.
    */
  def resetPeaks(): Unit = {
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
  }

  /** Sum of the heap pools' peak used bytes since [[resetPeaks]], in MiB. */
  def peakHeapMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / MiB

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / MiB

  /** (collection count, collection seconds) summed over all collectors. */
  def gc: (Long, Double) =
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum / 1000.0)

  /** Bytes allocated so far by the calling thread, in MiB. */
  def threadAllocMb: Double =
    threads.getThreadAllocatedBytes(Thread.currentThread().getId) / MiB
}

/** Spark scheduler counters, owned by the benchmark and registered on the
  * session's listener bus for one traced operation. The bus is asynchronous,
  * so [[settle]] waits until every started job, stage and task has reported
  * its end.
  */
final class SparkCounters extends SparkListener {
  val jobsStarted, jobsEnded, stagesSubmitted, stagesCompleted = new AtomicLong
  val tasksStarted, tasksEnded = new AtomicLong
  val executorRunMs, shuffleWriteBytes, diskSpilledBytes, failedTasks = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobsStarted.incrementAndGet()
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stagesSubmitted.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stagesCompleted.incrementAndGet()
  override def onTaskStart(e: SparkListenerTaskStart): Unit = tasksStarted.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasksEnded.incrementAndGet()
    if (!e.taskInfo.successful) failedTasks.incrementAndGet()
    val tm = e.taskMetrics
    if (tm != null) {
      executorRunMs.addAndGet(tm.executorRunTime)
      shuffleWriteBytes.addAndGet(tm.shuffleWriteMetrics.bytesWritten)
      diskSpilledBytes.addAndGet(tm.diskBytesSpilled)
    }
  }

  /** Wait (at most `timeoutMs`) for the listener bus to deliver every end event. */
  def settle(timeoutMs: Long = 5000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def pending = jobsStarted.get != jobsEnded.get ||
      stagesSubmitted.get != stagesCompleted.get || tasksStarted.get != tasksEnded.get
    Thread.sleep(20)
    while (pending && System.currentTimeMillis() < deadline) Thread.sleep(10)
  }

  def snapshot: Seq[(String, Double)] = Seq(
    "dist.spark_jobs" -> jobsEnded.get.toDouble,
    "dist.spark_stages" -> stagesCompleted.get.toDouble,
    "dist.spark_tasks" -> tasksEnded.get.toDouble,
    "dist.spark_failed_tasks" -> failedTasks.get.toDouble,
    "dist.executor_run_s" -> executorRunMs.get / 1000.0,
    "dist.shuffle_write_mb" -> shuffleWriteBytes.get / (1024.0 * 1024.0),
    "dist.spill_disk_mb" -> diskSpilledBytes.get / (1024.0 * 1024.0),
  )
}

object SparkCounters {
  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    c
  }
}
