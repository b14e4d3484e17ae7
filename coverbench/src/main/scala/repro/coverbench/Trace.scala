package repro.coverbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.security.MessageDigest

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization

/** A timed region around one call into a layer. `parent` is the id of the
  * enclosing span (-1 at the top); all spans of one operation share `op`.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String,
                      startNs: Long, endNs: Long, allocMb: Double) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Span recorder. Spans are kept in memory and written out once, at the end
  * of the run, so recording costs two clock reads and two allocation-counter
  * reads per span. With `enabled = false` it runs the body and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var op = -1

  def startOp(i: Int): Unit = op = i

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.length
      spans += null // reserve the id so children get higher ids
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val a0 = Jvm.threadAllocMb
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans(id) = Span(id, parent, op, name, t0, t1, Jvm.threadAllocMb - a0)
        open = open.tail
      }
    }

  /** Spans of operation `i`, by name (a name used twice keeps the last). */
  def ofOp(i: Int): Map[String, Span] =
    spans.iterator.filter(s => s != null && s.op == i).map(s => s.name -> s).toMap

  def write(path: Path): Unit = {
    val rows = spans.iterator.filter(_ != null).map { s =>
      ListMap("id" -> s.id, "parent" -> s.parent, "op" -> s.op, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "alloc_mb" -> s.allocMb)
    }.toList
    Files.write(path, (Serialization.write(rows)(DefaultFormats) + "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Order-sensitive digest of a cover: SHA-256 over the ids as 8-byte
  * big-endian integers, in the order returned, first 16 hex digits.
  */
object CoverDigest {
  def apply(ids: Array[Long]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    ids.foreach { id => buf.clear(); buf.putLong(id); md.update(buf.array()) }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
