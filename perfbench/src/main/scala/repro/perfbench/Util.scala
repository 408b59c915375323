package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** A metric as printed: value plus unit. */
final case class Metric(value: Double, unit: String)

/** Minimal JSON writer for the result line and the run record. */
object Json {
  def apply(v: Any): String = v match {
    case null                  => "null"
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case i: Int                => i.toString
    case l: Long               => l.toString
    case d: Double             => num(d)
    case m: Metric             => apply(Map("value" -> m.value, "unit" -> m.unit))
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]       => xs.iterator.map(apply).mkString("[", ", ", "]")
    case xs: Array[_]          => apply(xs.toSeq)
    case o                     => quote(o.toString)
  }

  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').result()
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }
}

/** Wall-clock helpers. */
object Clock {
  def now(): Long = System.nanoTime()
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Runs `body` and returns its result with the elapsed seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, secondsSince(t0))
  }
}

/** GC time, JIT time, process CPU time and peak heap from the platform
  * MXBeans; `snapshot` at the start of a window, `since` at its end.
  */
object Jvm {
  final case class Snap(gcMs: Long, jitMs: Long, cpuNs: Long)

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def processCpuNs(): Long = os.getProcessCpuTime

  def snapshot(): Snap = Snap(
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum,
    Option(ManagementFactory.getCompilationMXBean).map(_.getTotalCompilationTime).getOrElse(0L),
    processCpuNs())

  /** Restart peak-usage tracking of the heap pools. */
  def resetHeapPeak(): Unit =
    ManagementFactory.getMemoryPoolMXBeans.asScala.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset, in MiB. */
  def heapPeakMb(): Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  def since(s: Snap): Map[String, Double] = {
    val e = snapshot()
    Map("gc_s" -> (e.gcMs - s.gcMs) / 1000.0, "jit_ms" -> (e.jitMs - s.jitMs).toDouble,
      "cpu_s" -> (e.cpuNs - s.cpuNs) / 1e9)
  }

  def maxHeapMb: Long = Runtime.getRuntime.maxMemory / (1024 * 1024)

  def xmxArg: String =
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption
      .getOrElse("(default)")
}

/** Clears the per-JVM memo of a program object (`Experiments.env`,
  * `GraphGen.graph`), so that a timed call does the work instead of hitting
  * the cache. Every concurrent-map field of the object is cleared; callers
  * additionally check that the next call returns a fresh object, so a memo
  * this misses fails the run instead of going unnoticed.
  */
object Memo {
  def clear(obj: AnyRef): Unit =
    obj.getClass.getDeclaredFields
      .filter(f => classOf[scala.collection.mutable.Map[_, _]].isAssignableFrom(f.getType))
      .foreach { f =>
        f.setAccessible(true)
        f.get(obj).asInstanceOf[scala.collection.mutable.Map[_, _]].clear()
      }
}

/** Spans recorded by the traced run: name, start and end (seconds from the
  * tracer's origin) and the enclosing span's index (-1 at the top).
  */
final class Tracer {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val spans = scala.collection.mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]

  private def t(): Double = (System.nanoTime() - origin) / 1e9

  def span[T](name: String)(body: => T): T = {
    val idx = spans.length
    spans += Span(name, t(), Double.NaN, open.headOption.getOrElse(-1))
    open = idx :: open
    try body
    finally {
      open = open.tail
      spans(idx) = spans(idx).copy(end = t())
    }
  }

  def all: Seq[Span] = spans.toSeq

  /** Total seconds of every span named `name`. */
  def total(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum

  def toJson: Seq[Map[String, Any]] =
    spans.toSeq.map(s => Map("name" -> s.name, "start_s" -> s.start, "end_s" -> s.end, "parent" -> s.parent))
}

object Tracer {
  final case class Span(name: String, start: Double, end: Double, parent: Int) {
    def seconds: Double = end - start
  }
}
