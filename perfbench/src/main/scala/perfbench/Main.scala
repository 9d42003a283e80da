package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.engine._
import repro.exp.ExpScale
import repro.graph.RoadNetwork
import repro.workload.QueryWorkload
import scala.collection.mutable

/** Metrics and correctness checks of one benchmark invocation. Simulated
  * seconds are results: they are printed as data lines, never as metrics.
  */
final class Result {
  val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
  val layer = mutable.LinkedHashMap.empty[String, (Double, String)]
  var attempted = 0
  var failed = 0

  def check(name: String, ok: Boolean, detail: => String = ""): Unit = {
    attempted += 1
    if (!ok) { failed += 1; println(s"CHECK FAILED $name $detail") }
  }

  def data(line: String): Unit = println(s"data $line")

  def json(traced: Boolean): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "0" else v.toString
    val ms = (if (traced) PerLayer.names.map(n => n -> layer.getOrElse(n, (0.0, PerLayer.unitOf(n))))
              else e2e.toSeq)
      .map { case (n, (v, u)) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Names and units of every per-layer metric. A traced run prints all of
  * them; a layer that does no work on a workload reads 0.
  */
object PerLayer {
  private val kinds = Seq("intra", "inter", "poi")
  private val modes = Seq("hybrid", "per_query_global", "bsp_global")

  val units: Seq[(String, String)] =
    Seq("graph.build_ms" -> "ms", "workload.generate_ms" -> "ms", "engine.prepare_edges_s" -> "s",
      "engine.trace_gen_s" -> "s") ++
    kinds.flatMap(k => Seq(s"engine.$k.batch_s.p50" -> "s", s"engine.$k.batch_s.max" -> "s",
      s"engine.$k.ms_per_iter" -> "ms", s"engine.$k.us_per_msg" -> "us",
      s"engine.$k.iters" -> "count", s"engine.$k.activations" -> "count", s"engine.$k.messages" -> "count")) ++
    Seq("partition.hash_ms" -> "ms", "partition.domain_ms" -> "ms",
      "sim.stats_ms" -> "ms", "sim.stats_ns_per_record" -> "ns", "sim.qiters" -> "count",
      "sim.metrics_ms" -> "ms") ++
    modes.flatMap(m => Seq(s"sim.$m.simulate_ms" -> "ms", s"sim.$m.us_per_qiter" -> "us")) ++
    Seq("core.observe_ms" -> "ms", "core.repartition_ms.p50" -> "ms", "core.repartition_ms.max" -> "ms",
      "core.plan_prep_ms" -> "ms", "core.plans" -> "count", "core.enacted" -> "count",
      "core.enacted_ratio" -> "ratio", "core.moved_vertices" -> "count") ++
    Seq("qcut.ils_ms.p50" -> "ms", "qcut.ils_ms.max" -> "ms", "qcut.ils_runs" -> "count",
      "qcut.ils_rounds" -> "count", "qcut.deadline_stops" -> "count", "qcut.roundcap_stops" -> "count",
      "qcut.improve_ratio" -> "ratio") ++
    Seq("qcut.best_successor_us" -> "us", "qcut.candidates_per_scan" -> "count",
      "qcut.moves_per_s" -> "1/s", "trace.overhead_pct" -> "%")

  val names: Seq[String] = units.map(_._1)
  def unitOf(name: String): String = units.find(_._1 == name).map(_._2).getOrElse("count")
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
}

/** Everything a workload needs: a Spark session, the BW-lite network, its
  * cached edge table and the three query streams of the seed, generated
  * exactly as `repro.exp.Traces` generates them (but never read from, or
  * written to, its caches).
  */
final case class Env(
    spark: SparkSession,
    g: RoadNetwork,
    edges: DataFrame,
    intra: Vector[Query],
    inter: Vector[Query],
    poi: Vector[Query]) {

  private val produced =
    java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[BatchTrace, java.lang.Boolean])

  /** Runs one batch through the engine and registers its trace as produced
    * by this invocation.
    */
  def runBatch(qs: Seq[Query]): BatchTrace = {
    val t = BspEngine.runBatch(spark, edges, g.isTagged, qs, Env.scale.maxIter, astarSide = Some(g.side))
    produced.add(t)
    t
  }

  /** Runs queries batch by batch, one after another, as the program does
    * (`BspEngine.runWorkload`), and registers the traces as produced by
    * this invocation.
    */
  def runWorkload(qs: Seq[Query]): Vector[BatchTrace] = {
    val ts = BspEngine.runWorkload(spark, edges, g.isTagged, qs, Env.scale.maxIter, astarSide = Some(g.side))
    ts.foreach(produced.add)
    ts
  }

  /** True when every trace was produced by [[runBatch]] or [[runWorkload]]
    * in this JVM.
    */
  def allProducedHere(traces: Seq[BatchTrace]): Boolean = traces.forall(produced.contains)

  def batch(qs: Vector[Query], id: Int): Vector[Query] = qs.filter(_.batch == id)
}

object Env {
  val scale: ExpScale = ExpScale.bw
  /** Batch index of the first disturbance (inter-urban) batch. */
  val firstInterBatch: Int = scale.nQueries / scale.batchSize

  private def session(cores: Int): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  /** Builds the environment `reps` times (stopping the previous session
    * each time) and returns the last one with the median set-up seconds.
    */
  def build(seed: Long, reps: Int, res: Result): (Env, Double) = {
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))
    val total, graphMs, genMs, edgesS = mutable.ArrayBuffer.empty[Double]
    var env: Env = null
    for (_ <- 0 until reps) {
      if (env != null) { env.edges.unpersist(true); env.spark.stop() }
      val t0 = System.nanoTime()
      val spark = session(cores)
      val tg = System.nanoTime()
      val g = RoadNetwork.bwLite
      g.adjacency
      graphMs += Stats.secondsSince(tg) * 1e3
      val te = System.nanoTime()
      val edges = BspEngine.prepareEdges(spark, g)
      edgesS += Stats.secondsSince(te)
      val tq = System.nanoTime()
      val s = scale
      val intra = QueryWorkload.generate(g, s.nQueries, QueryKind.Sssp, batchSize = s.batchSize, seed = seed)
      val inter = QueryWorkload.generate(g, s.nDisturb, QueryKind.Sssp, batchSize = s.batchSize,
        interUrban = true, seed = seed + 1000, qidOffset = s.nQueries, batchOffset = firstInterBatch)
      val poi = QueryWorkload.generate(g, s.nQueries, QueryKind.Poi, batchSize = s.batchSize, seed = seed + 2000)
      genMs += Stats.secondsSince(tq) * 1e3
      total += Stats.secondsSince(t0)
      env = Env(spark, g, edges, intra, inter, poi)
    }
    res.layer("graph.build_ms") = (Stats.median(graphMs.toSeq), "ms")
    res.layer("workload.generate_ms") = (Stats.median(genMs.toSeq), "ms")
    res.layer("engine.prepare_edges_s") = (Stats.median(edgesS.toSeq), "s")
    res.data(f"setup base_s=${total.map(v => f"$v%.3f").mkString(",")} cores=$cores")
    (env, Stats.median(total.toSeq))
  }
}

/** `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`:
  * runs one workload and prints, as its last line, one JSON object with
  * the correctness verdict and the end-to-end metrics (`--trace 0`) or the
  * per-layer metrics (`--trace 1`). A traced run writes its span files to
  * `--out`.
  */
object Main {
  val workloads: Map[String, Workload] =
    Seq(EngineTrace, Replay).map(w => w.name -> w).toMap

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val code =
      try {
        val w = workloads.getOrElse(opts.getOrElse("workload", ""),
          throw new IllegalArgumentException(s"--workload must be one of ${workloads.keys.toSeq.sorted.mkString(", ")}"))
        val seed = opts.get("seed").map(_.toLong).getOrElse(Env.scale.seed)
        val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
        val traced = opts.get("trace").contains("1")
        val out = new java.io.File(opts.getOrElse("out", "target/perfbench"))
        val res = new Result
        // The heap the run's traces hold: a reading while they are still
        // referenced, less one after the last reference is dropped. The run
        // has returned and stopped Spark, so nothing else is freed between.
        // Reported per activation or message record, since the trace size
        // depends on the seed's queries.
        Heap.usedMb()
        val live = new java.util.concurrent.atomic.AtomicReference(w.run(seed, seconds, traced, out, res))
        val records = live.get.map(t => t.activations.size + t.messages.size).sum
        val probes = live.get.map(new java.lang.ref.WeakReference(_))
        val withTraces = Heap.usedMb()
        live.set(null)
        val without = Heap.usedMb()
        res.check("trace-heap-released", probes.forall(_.get == null))
        val retainedMb = withTraces - without
        res.e2e("retained_heap_b_per_record") = (retainedMb * 1024 * 1024 / records, "B")
        res.data(f"heap used_mb with_traces=$withTraces%.3f without=$without%.3f " +
          f"retained_mb=$retainedMb%.3f traces=${probes.size} records=$records")
        println(res.json(traced))
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }
}

object Heap {
  import scala.jdk.CollectionConverters._
  private val pools = java.lang.management.ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).toVector

  /** JVM heap in use right after a full collection, in MB: the pools' usage
    * as the collector left it, so allocations made after it do not count.
    */
  def usedMb(): Double = {
    System.gc(); System.gc()
    pools.flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum / (1024.0 * 1024.0)
  }
}

/** One benchmark workload. */
trait Workload {
  def name: String

  /** Runs the workload, records its metrics and checks in `res`, stops
    * Spark, and returns the traces whose heap `retained_heap_b_per_record`
    * reports.
    */
  def run(seed: Long, seconds: Double, traced: Boolean, out: java.io.File, res: Result): Seq[BatchTrace]

  /** Runs `unit` repeatedly until `seconds` have passed (at least once);
    * returns each repetition's wall-clock seconds and result.
    */
  def measure[A](seconds: Double)(unit: => A): Vector[(Double, A)] = {
    val start = System.nanoTime()
    val out = Vector.newBuilder[(Double, A)]
    do {
      val t0 = System.nanoTime()
      val a = unit
      out += ((Stats.secondsSince(t0), a))
    } while (Stats.secondsSince(start) < seconds)
    out.result()
  }

  /** Runs pairs of an untraced and a traced repetition until `seconds` have
    * passed (at least one pair). The untraced one runs first in even pairs
    * and second in odd pairs. Returns the (untraced, traced) pairs, each
    * repetition with its wall-clock seconds.
    */
  def measurePairs[A](seconds: Double)(untraced: => A)(traced: => A): Vector[((Double, A), (Double, A))] = {
    var i = 0
    measure(seconds) {
      def timed(body: => A) = { val t0 = System.nanoTime(); val a = body; (Stats.secondsSince(t0), a) }
      val pair =
        if (i % 2 == 0) { val u = timed(untraced); (u, timed(traced)) }
        else { val t = timed(traced); (timed(untraced), t) }
      i += 1
      pair
    }.map(_._2)
  }

  /** Tracing overhead: median traced over median untraced repetition. */
  def reportOverhead(pairs: Seq[((Double, _), (Double, _))], res: Result): Unit =
    res.layer("trace.overhead_pct") =
      (100.0 * (Stats.median(pairs.map(_._2._1)) / Stats.median(pairs.map(_._1._1)) - 1.0), "%")

  /** Reports the end-to-end metrics. `iters_per_s` counts the BSP
    * iterations of the run's distinct traces: the engine's time follows
    * them, while query-iterations (printed as data) vary with the seed.
    */
  def reportE2e(res: Result, setupS: Double, runS: Seq[Double], traces: Seq[BatchTrace], qiters: Long): Unit = {
    val runMedian = Stats.median(runS)
    val iters = traces.map(_.iterations).sum
    res.e2e("setup_s") = (setupS, "s")
    res.e2e("run_s") = (runMedian, "s")
    res.e2e("iters_per_s") = (iters / runMedian, "1/s")
    res.data(f"run_s samples=${runS.size} ${runS.map(v => f"$v%.4f").mkString(",")} " +
      f"iters=$iters qiters=$qiters qiters_per_s=${qiters / runMedian}%.3f")
  }

  /** Stops Spark and checks that the `Traces` disk cache was never
    * touched: the directory it would read from or write to must still be
    * absent.
    */
  def finish(env: Env, res: Result): Unit = {
    env.edges.unpersist(true)
    env.spark.stop()
    val dir = sys.props.get("qgraph.trace.dir").map(new java.io.File(_))
    res.check("trace-cache-untouched", dir.exists(d => !d.exists()),
      s"qgraph.trace.dir=${dir.map(_.getPath).getOrElse("(unset)")}")
  }
}
