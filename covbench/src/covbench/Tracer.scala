package covbench

import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded by the benchmark around its calls into the
  * program's layers. Spans are single-threaded and strictly nested, so a
  * span's self time is its duration minus the durations of its direct
  * children. While `enabled` is false a span is just its body.
  */
final class Tracer(val workload: String) {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  var enabled: Boolean = false

  /** Round number stamped on spans started from now on. */
  var round: Int = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += Span(id, parent, name, workload, round, System.nanoTime(), -1L)
      open = id :: open
      try body
      finally {
        open = open.tail
        spans(id) = spans(id).copy(end = System.nanoTime())
      }
    }

  def all: Seq[Span] = spans.toSeq

  /** Self time in nanoseconds of every span, by span id. */
  def selfNanos: Array[Long] = {
    val self = spans.iterator.map(s => s.end - s.start).toArray
    for (s <- spans if s.parent >= 0) self(s.parent) -= s.end - s.start
    self
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, workload: String, round: Int,
                        start: Long, end: Long) {
    def nanos: Long = end - start
    def toJson: String =
      s"""{"id":$id,"parent":$parent,"name":"$name","workload":"$workload",""" +
        s""""round":$round,"start_ns":$start,"end_ns":$end}"""
  }
}
