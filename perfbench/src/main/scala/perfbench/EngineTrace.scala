package perfbench

import repro.engine._
import repro.graph.Dijkstra

/** `engine-trace`: `BspEngine.runBatch` on one fixed batch of each kind —
  * intra-urban SSSP (small A*-pruned frontiers), POI (no A* bound) and
  * inter-urban SSSP (long, large frontiers) — so a per-iteration saving and
  * a per-message saving show separately. `sim`, `core` and `qcut` are idle.
  * Another intra-urban and another POI batch run first, as warm-up: the
  * first batches of a JVM are slower. The inter-urban kind gets no warm-up
  * batch of its own, which would take 17-25 s: a run must fit in 180 s.
  * Answers are checked against Dijkstra outside the timed section.
  */
object EngineTrace extends Workload {
  val name = "engine-trace"

  /** Per-kind engine figures of one measured set. */
  final case class KindRun(kind: String, trace: BatchTrace, seconds: Double) {
    def qiters: Long = trace.activations.iterator.map(a => (a.qid, a.iter)).toSet.size.toLong
  }

  def run(seed: Long, seconds: Double, traced: Boolean, out: java.io.File, res: Result): Seq[BatchTrace] = {
    val (env, setupS) = Env.build(seed, reps = 3, res)
    val batches = Seq(
      "intra" -> env.batch(env.intra, 0),
      "poi" -> env.batch(env.poi, 0),
      "inter" -> env.batch(env.inter, Env.firstInterBatch))
    val tr = new Tracer

    def set(withSpans: Boolean): Vector[KindRun] = batches.toVector.map { case (kind, qs) =>
      val t0 = System.nanoTime()
      val t = if (withSpans) tr.span(s"engine.$kind")(env.runBatch(qs)) else env.runBatch(qs)
      KindRun(kind, t, Stats.secondsSince(t0))
    }

    val warm0 = System.nanoTime()
    env.runWorkload(env.batch(env.intra, 1))
    env.runWorkload(env.batch(env.poi, 1))
    res.data(f"engine warmup_s=${Stats.secondsSince(warm0)}%.3f")

    val runs =
      if (!traced) {
        val untraced = measure(seconds)(set(withSpans = false))
        reportE2e(res, setupS, untraced.map(_._1), untraced.head._2.map(_.trace), untraced.head._2.map(_.qiters).sum)
        untraced.map(_._2)
      } else {
        val pairs = measurePairs(seconds)(set(withSpans = false))(set(withSpans = true))
        reportOverhead(pairs, res)
        layerMetrics(pairs.flatMap(_._2._2), res)
        tr.write(new java.io.File(out, s"spans-$name-$seed.jsonl"))
        pairs.flatMap(p => Seq(p._1._2, p._2._2))
      }

    for ((r, i) <- runs.zipWithIndex)
      res.data(s"engine set=$i " + r.map(k => f"${k.kind}_s=${k.seconds}%.3f").mkString(" "))
    // Every repetition must produce the same traces; counts are exact.
    for (r <- runs.tail; (a, b) <- r.zip(runs.head))
      res.check(s"engine-deterministic-${a.kind}",
        a.trace.activations == b.trace.activations && a.trace.messages == b.trace.messages &&
          a.trace.results == b.trace.results)
    for (k <- runs.head)
      res.data(s"engine ${k.kind} batch=${k.trace.batchId} iters=${k.trace.iterations} " +
        s"activations=${k.trace.activations.size} messages=${k.trace.messages.size} qiters=${k.qiters} " +
        s"fingerprint=${fingerprint(k.trace)}")
    checkAnswers(env, runs.head.map(_.trace), res)
    finish(env, res)
    runs.head.map(_.trace)
  }

  /** Per-kind batch time, time per BSP iteration and per message, and the
    * exact trace counts summed over the distinct batches of the kind.
    */
  def layerMetrics(runs: Seq[KindRun], res: Result): Unit =
    for ((kind, rs) <- runs.groupBy(_.kind)) {
      val secs = rs.map(_.seconds)
      val distinct = rs.groupBy(_.trace.batchId).values.map(_.head.trace).toSeq
      res.layer(s"engine.$kind.batch_s.p50") = (Stats.median(secs), "s")
      res.layer(s"engine.$kind.batch_s.max") = (secs.max, "s")
      res.layer(s"engine.$kind.ms_per_iter") = (secs.sum * 1e3 / rs.map(_.trace.iterations).sum, "ms")
      res.layer(s"engine.$kind.us_per_msg") = (secs.sum * 1e6 / rs.map(_.trace.messages.size).sum, "us")
      res.layer(s"engine.$kind.iters") = (distinct.map(_.iterations).sum.toDouble, "count")
      res.layer(s"engine.$kind.activations") = (distinct.map(_.activations.size).sum.toDouble, "count")
      res.layer(s"engine.$kind.messages") = (distinct.map(_.messages.size).sum.toDouble, "count")
    }

  /** Order-sensitive hash of a trace's activations and messages. */
  def fingerprint(t: BatchTrace): String =
    f"${scala.util.hashing.MurmurHash3.orderedHash(t.activations ++ t.messages)}%08x"

  /** Every SSSP distance against `Dijkstra.shortestPath`, every POI answer
    * against `Dijkstra.nearestTagged`.
    */
  def checkAnswers(env: Env, traces: Seq[BatchTrace], res: Result): Unit = {
    val adj = env.g.adjacency
    for (t <- traces; q <- t.queries) {
      val r = t.results(q.qid)
      q.kind match {
        case QueryKind.Sssp =>
          val exp = Dijkstra.shortestPath(adj, q.start, q.end)
          res.check(s"sssp-q${q.qid}",
            r.found == exp.isDefined && exp.forall(d => math.abs(r.dist - d) < 1e-9), s"${r.dist} vs $exp")
        case QueryKind.Poi =>
          val exp = Dijkstra.nearestTagged(adj, q.start, env.g.isTagged)
          res.check(s"poi-q${q.qid}",
            r.found == exp.isDefined && exp.forall { case (v, d) => r.target == v && math.abs(r.dist - d) < 1e-9 },
            s"(${r.target}, ${r.dist}) vs $exp")
      }
    }
  }
}
