package perfbench

import scala.collection.mutable.ArrayBuffer

/** A timed interval at a layer boundary. Spans of one file share `file`;
  * `parent` is the id of the span that caused it (-1 for a file's root).
  * Times are `System.nanoTime` values.
  */
final case class Span(id: Int, parent: Int, file: Int, layer: String, start: Long, end: Long) {
  def dur: Long = end - start
}

/** In-memory span store for the traced run; written out when the run ends. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]

  def add(parent: Int, file: Int, layer: String, start: Long, end: Long): Int = {
    val id = spans.length
    spans += Span(id, parent, file, layer, start, end)
    id
  }

  /** Open a span now; close it with [[close]]. */
  def open(parent: Int, file: Int, layer: String): Int = add(parent, file, layer, System.nanoTime(), -1L)

  def close(id: Int): Unit = spans(id) = spans(id).copy(end = System.nanoTime())

  def timed[A](parent: Int, file: Int, layer: String)(f: => A): (A, Int) = {
    val id = open(parent, file, layer)
    try (f, id)
    finally close(id)
  }

  def toJsonLines: Iterator[String] = spans.iterator.map { s =>
    s"""{"id":${s.id},"parent":${s.parent},"file":${s.file},"layer":"${s.layer}","start_ns":${s.start},"end_ns":${s.end}}"""
  }
}

object Trace {

  /** Total length of the union of `ivs`, each clipped to [lo, hi). */
  def unionLength(ivs: Iterable[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = ivs.iterator
      .map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }
      .toVector
      .sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    for ((a, b) <- clipped) {
      if (a > curB) {
        if (curB > curA) total += curB - curA
        curA = a; curB = b
      } else if (b > curB) curB = b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Self time per span: its duration minus the part its children cover. */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(k => (k.start, k.end))
      s.id -> (s.dur - unionLength(kids, s.start, s.end))
    }.toMap
  }

  /** Self time summed per layer. */
  def selfByLayer(spans: Seq[Span]): Map[String, Long] = {
    val self = selfTimes(spans)
    spans.groupMapReduce(_.layer)(s => self(s.id))(_ + _)
  }
}
