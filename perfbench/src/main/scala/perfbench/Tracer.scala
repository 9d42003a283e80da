package perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced run. Spans are recorded only
  * around calls the benchmark makes into the program's public functions;
  * nothing inside the program is instrumented. Each span has a parent (the
  * span open when it started), so a layer's self time can be derived from
  * the written file. Counters are recorded at the same boundaries.
  */
final class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private val counters = mutable.LinkedHashMap.empty[String, Long]
  private var current = -1

  def span[A](name: String)(body: => A): A = {
    val id = names.length
    names += name; parents += current; starts += System.nanoTime(); ends += 0L
    val outer = current
    current = id
    try body
    finally { ends(id) = System.nanoTime(); current = outer }
  }

  def count(name: String, n: Long): Unit = counters(name) = counters.getOrElse(name, 0L) + n

  def counter(name: String): Long = counters.getOrElse(name, 0L)

  /** Durations in milliseconds of every span with this name, in start order. */
  def durationsMs(name: String): Vector[Double] =
    names.indices.iterator.filter(names(_) == name).map(i => (ends(i) - starts(i)) / 1e6).toVector

  def totalMs(name: String): Double = durationsMs(name).sum

  /** Writes one JSON object per span, then one per counter. */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(file)
    try {
      for (i <- names.indices)
        out.println(s"""{"span":$i,"parent":${parents(i)},"name":"${names(i)}","start_ns":${starts(i)},"end_ns":${ends(i)}}""")
      for ((n, v) <- counters) out.println(s"""{"counter":"$n","value":$v}""")
    } finally out.close()
  }
}
