package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** A span: one timed call into a layer. `parent` is the id of the span that
  * caused it (-1 for none); `op` groups the spans of one operation (-1 for
  * set-up and probe spans).
  */
final class Span(val id: Int, val name: String, val parent: Int, val op: Int) {
  var start: Long = 0L
  var end: Long = 0L
  def nanos: Long = end - start
}

/** In-memory span recorder, written out once at the end of a run. When
  * disabled, [[span]] only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {
  private val buf = ArrayBuffer.empty[Span]

  def open(name: String, parent: Int = -1, op: Int = -1): Span = {
    val s = new Span(buf.length, name, parent, op)
    buf += s
    s.start = System.nanoTime()
    s
  }

  def close(s: Span): Unit = s.end = System.nanoTime()

  def span[A](name: String, parent: Int = -1, op: Int = -1)(body: => A): A =
    if (!enabled) body
    else {
      val s = open(name, parent, op)
      try body finally close(s)
    }

  def spans: IndexedSeq[Span] = buf.toIndexedSeq

  /** Total self time in ms per span name: each span's duration minus the
    * part covered by its direct children.
    */
  def selfMillis(filter: Span => Boolean = _ => true): Map[String, Double] = {
    val childNanos = new Array[Long](buf.length)
    buf.foreach(s => if (s.parent >= 0) childNanos(s.parent) += s.nanos)
    buf.filter(filter).groupMapReduce(_.name)(s => (s.nanos - childNanos(s.id)) / 1e6)(_ + _)
  }

  /** Total duration in ms of the spans named `name` that pass `filter`. */
  def totalMillis(name: String, filter: Span => Boolean = _ => true): Double =
    buf.iterator.filter(s => s.name == name && filter(s)).map(_.nanos).sum / 1e6

  /** Durations in ms of the spans named `name`, in recording order. */
  def millis(name: String): Array[Double] =
    buf.iterator.filter(_.name == name).map(_.nanos / 1e6).toArray

  /** Writes every span as one CSV row. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      out.println("id,name,parent,op,start_ns,end_ns")
      buf.foreach(s => out.println(s"${s.id},${s.name},${s.parent},${s.op},${s.start},${s.end}"))
    } finally out.close()
  }
}
