package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.Executors
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

import repro.core._

/** Command-line options; see `perfbench/run.py` for their meaning. */
final case class Opts(
    workload: String = "",
    seed: Long = 1L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    scale: Double = 1.0,
    setups: Int = 3,
    out: String = "perfbench/.build/out")

/** Benchmark entry point: prints one JSON line as the last line of stdout. */
object Bench {

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Opts())
    val w =
      if (o.workload == "dblp-scale") Workloads.dblpScale(o.scale)
      else Workloads.byName(o.workload)
    val report = new Run(w, o).execute()
    println(report.json)
  }

  @annotation.tailrec
  def parse(args: List[String], o: Opts): Opts = args match {
    case Nil => require(o.workload.nonEmpty, "--workload is required"); o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case "--scale" :: v :: rest    => parse(rest, o.copy(scale = v.toDouble))
    case "--setups" :: v :: rest   => parse(rest, o.copy(setups = v.toInt))
    case "--out" :: v :: rest      => parse(rest, o.copy(out = v))
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  /** Used heap after full collections, in MB. */
  def heapMb(): Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")
}

/** Everything a measured phase needs, built by one set-up. */
final class Env(
    val attributed: Map[String, AttributedGraph],
    val graphs: Map[String, LocalGraph],
    val cells: IndexedSeq[Cell],
    val truths: Map[(String, String), EvalResult]) {
  def graph(c: Cell): LocalGraph = graphs(c.dataset)
  def truth(c: Cell): EvalResult = truths((c.dataset, c.h.name))
}

/** A sampler that remembers the last sample it returned, so the invariants
  * can inspect S after an untouched `Framework.runOnce` call.
  */
final class Capturing extends Sampler {
  var inner: Sampler = _
  var last: SampledGraph = _
  def name: String = inner.name
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    last = inner.sample(g, budget, rng)
    last
  }
}

/** What one operation produced: S, the evaluation on S and the t-test. */
final case class Outcome(s: SampledGraph, r: EvalResult, t: Option[Stats.TTest])

/** Accuracy-style figures over the first `limit` operations. */
final class Tally(val limit: Int) {
  var ops, matched, tested, covered, missed = 0
  var fill, degSum, capture, n = 0.0

  /** Adds one operation; `out` is None when it threw. */
  def add(env: Env, c: Cell, out: Option[Outcome]): Unit = {
    ops += 1
    val truth = env.truth(c)
    val r = out.map(_.r)
    if (r.exists(_.decision.isDefined) && r.get.decision == truth.decision) matched += 1
    if (!r.exists(_.estimate.isDefined)) missed += 1
    r.foreach(x => capture += x.nRelevant.toDouble / truth.nRelevant)
    out.map(_.s).foreach { s =>
      val g = env.graph(c)
      fill += Invariants.cost(s).toDouble / Invariants.capacity(g, s, c.budget)
      var i = 0
      while (i < s.nodeIdx.length) { degSum += g.degree(s.nodeIdx(i)); i += 1 }
    }
    out.flatMap(_.t).foreach { t =>
      tested += 1
      n += t.n
      if (truth.estimate.exists(e => t.ciLow <= e && e <= t.ciHigh)) covered += 1
    }
  }
}

/** One benchmark invocation: set-up (repeated), the Spark cross-check, the
  * measured phase and the report.
  */
final class Run(w: Workload, o: Opts) {
  import Bench.log

  private val tracer = new Tracer(o.trace)
  private val cap = new Capturing
  private var failed = 0
  private var attempted = 0
  private var localGraphMb = 0.0

  private def newSpark(): SparkSession = SparkSession.builder
    .master("local[4]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  /** Builds the workload's graphs, ground truth and a JIT warm-up pass.
    * Returns the environment and its wall time in seconds.
    */
  def setup(wl: Workload, tr: Tracer): (Env, Double) = {
    SparkSession.getActiveSession.foreach(_.stop())
    val t0 = System.nanoTime()
    val root = if (tr.enabled) tr.open("setup") else null
    val pid = if (root == null) -1 else root.id
    val spark = newSpark()
    val ag = wl.datasets.map(ds => ds -> tr.span("graphgen", pid)(Workloads.generate(spark, ds, wl.scale))).toMap
    val heap0 = if (tr.enabled) Bench.heapMb() else 0.0
    val lg = wl.datasets.map(ds => ds -> tr.span("localgraph", pid)(LocalGraph.fromAttributed(ag(ds)))).toMap
    if (tr.enabled) localGraphMb = Bench.heapMb() - heap0
    val cells = wl.cells(lg)
    val truths = cells.map(c => (c.dataset, c.h)).distinct.map { case (ds, h) =>
      (ds, h.name) -> tr.span("truth", pid)(Framework.groundTruth(lg(ds), h))
    }.toMap
    val env = new Env(ag, lg, cells, truths)
    val warm = new OpStream(cells, -1L)
    for (i <- 0 until wl.warmupRounds * warm.roundSize) {
      untracedOp(env, warm, i)
      CpuProbe.micros()
    }
    if (root != null) tr.close(root)
    (env, (System.nanoTime() - t0) / 1e9)
  }

  /** One untouched `Framework.runOnce` call; returns its wall time in ms. */
  private def untracedOp(env: Env, stream: OpStream, i: Int): (Double, Either[Throwable, Outcome]) = {
    val c = stream.cell(i)
    cap.inner = c.sampler
    cap.last = null
    val rng = new Random(stream.rngSeed(i))
    val t0 = System.nanoTime()
    val out =
      try Right(Framework.runOnce(env.graph(c), c.h, cap, c.budget, rng))
      catch { case NonFatal(e) => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    (ms, out.map(r => Outcome(cap.last, r.result, r.ttest)))
  }

  /** The calls `Framework.runOnce` makes (sample, evaluate on S, and the
    * t-test for `Avg` hypotheses with values), each inside a span.
    */
  private def tracedOp(env: Env, stream: OpStream, i: Int, tr: Tracer): Either[Throwable, Outcome] = {
    val c = stream.cell(i)
    val g = env.graph(c)
    val rng = new Random(stream.rngSeed(i))
    val op = tr.open("op", op = i)
    try {
      val s = tr.span("sample", op.id, i)(c.sampler.sample(g, c.budget, rng))
      val r = tr.span("extract", op.id, i)(LocalEvaluator.evaluate(g, c.h, Some(s)))
      val t =
        if (c.h.agg == Agg.Avg && r.values.nonEmpty)
          Some(tr.span("ttest", op.id, i)(Stats.tTest(r.values, c.h.c, c.h.op)))
        else None
      Right(Outcome(s, r, t))
    } catch { case NonFatal(e) => Left(e) }
    finally tr.close(op)
  }

  /** Counts the operation and checks its invariants. */
  private def record(env: Env, c: Cell, i: Int, out: Either[Throwable, Outcome]): Unit = {
    attempted += 1
    val errs = out match {
      case Right(x) => Invariants.check(env.graph(c), c.budget, x.s, x.r, x.t)
      case Left(e)  => Seq(e.toString)
    }
    if (errs.nonEmpty) {
      failed += 1
      if (failed <= 10) log(s"op $i ${c.dataset}/${c.h.name}/${c.samplerName} failed: ${errs.mkString("; ")}")
    }
  }

  /** Untraced latencies, the [[CpuProbe]] time read after each operation,
    * and the phase's wall time.
    */
  final class Phase(val latMs: Array[Double], val probeUs: Array[Double], val wallS: Double) {
    lazy val correctedMs: Array[Double] = CpuProbe.corrected(latMs, probeUs)
  }

  /** Closed loop with one client thread for `seconds` and at least `minOps`
    * operations. Each untraced operation is followed by a [[CpuProbe]]
    * reading. Traced, each operation also runs traced, in alternating order
    * so neither copy always runs with the other's warm caches.
    */
  def measure(env: Env, stream: OpStream, seconds: Double, minOps: Int, tally: Tally): Phase = {
    val lat = Array.newBuilder[Double]
    val probe = Array.newBuilder[Double]
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    var i = 0
    while (i < minOps || System.nanoTime() < deadline) {
      val c = stream.cell(i)
      if (o.trace && i % 2 == 1) record(env, c, i, tracedOp(env, stream, i, tracer))
      val (ms, out) = untracedOp(env, stream, i)
      lat += ms
      probe += CpuProbe.micros()
      record(env, c, i, out)
      if (o.trace && i % 2 == 0) record(env, c, i, tracedOp(env, stream, i, tracer))
      if (i < tally.limit) tally.add(env, c, out.toOption)
      i += 1
    }
    new Phase(lat.result(), probe.result(), (System.nanoTime() - t0) / 1e9)
  }

  /** Writes one CSV row per measured operation: its cell, untraced ms, the
    * probe read after it and its corrected ms.
    */
  private def writeOps(stream: OpStream, phase: Phase): Unit = {
    val path = Paths.get(o.out, s"ops-${w.name}-${o.seed}.csv")
    Files.createDirectories(path.getParent)
    val rows = phase.latMs.indices.map { i =>
      val c = stream.cell(i)
      s"$i,${c.dataset},${c.h.name},${c.samplerName},${phase.latMs(i)},${phase.probeUs(i)},${phase.correctedMs(i)}"
    }
    Files.write(path, ("op,dataset,hypothesis,sampler,ms,probe_us,corrected_ms" +: rows).asJava)
  }

  /** LocalEvaluator ground truth against SparkEvaluator on the same graph. */
  def crossCheck(env: Env): Seq[String] = {
    val byName = env.cells.map(c => (c.dataset, c.h.name) -> c.h).toMap
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val checks = env.truths.toSeq.sortBy(_._1).map { case (key @ (ds, name), local) =>
        Future {
          val spark = SparkEvaluator.evaluate(env.attributed(ds), byName(key))
          val estOk = (local.estimate, spark.estimate) match {
            case (Some(a), Some(b)) => math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))
            case (a, b)             => a == b
          }
          if (local.decision.isEmpty) Some(s"$ds/$name: no relevant items in G")
          else if (!estOk || local.nRelevant != spark.nRelevant || local.decision != spark.decision)
            Some(s"$ds/$name: local ${local.estimate}/${local.nRelevant} vs Spark ${spark.estimate}/${spark.nRelevant}")
          else None
        }
      }
      checks.flatMap(f => Await.result(f, Duration.Inf))
    } finally pool.shutdown()
  }

  def execute(): Report = {
    // Only the last set-up's environment stays reachable, so heap_mb
    // measures one.
    var env: Env = null
    val setupTimes = Array.fill(o.setups) {
      env = null
      val (e, s) = setup(w, tracer)
      env = e
      s
    }
    val heap = Bench.heapMb()
    log(f"${w.name}: set-up ${setupTimes.map(s => f"$s%.3f").mkString(", ")} s; heap $heap%.1f MB")

    // The cross-check is the last use of Spark before the measured phase.
    // Stopping the session then leaves no Spark threads running beside the
    // client thread.
    val tc = System.nanoTime()
    val mismatches = crossCheck(env)
    log(f"cross-check of ${env.truths.size} hypotheses against SparkEvaluator: ${(System.nanoTime() - tc) / 1e9}%.1f s")
    mismatches.foreach(m => log(s"cross-check mismatch: $m"))
    SparkSession.getActiveSession.foreach(_.stop())
    System.gc()

    val stream = new OpStream(env.cells, o.seed)
    val rounds = if (o.trace) math.min(w.prefixRounds, Workloads.TracedPrefixRounds) else w.prefixRounds
    val tally = new Tally(rounds * stream.roundSize)
    val minOps = if (o.trace) tally.limit else math.max(tally.limit, Quantiles.minCount(0.99))
    val phase = measure(env, stream, o.seconds, minOps, tally)
    writeOps(stream, phase)
    val sorted = phase.latMs.sorted
    val n = sorted.length
    val corrected = phase.correctedMs.sorted
    log(f"${w.name}: $n tests in ${phase.wallS}%.2f s; wall test_ms p50 ${Quantiles.percentile(sorted, 0.5)}%.3f, " +
      f"p99 ${Quantiles.percentile(sorted, 0.99)}%.3f (${Quantiles.beyond(n, 0.99)} beyond); " +
      f"probe median ${Quantiles.median(phase.probeUs)}%.1f us (reference ${CpuProbe.ReferenceMicros}%.0f)")

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    if (!o.trace) {
      metrics("setup_s") = (Quantiles.median(setupTimes), "s")
      metrics("heap_mb") = (heap, "MB")
      // Timings at the reference CPU speed; see CpuProbe.
      metrics("test_ms_p50") = (Quantiles.percentile(corrected, 0.5), "ms")
      metrics("test_ms_p99") = (Quantiles.percentile(corrected, 0.99), "ms")
      metrics("tests_per_s") = (n / (corrected.sum / 1000), "1/s")
      metrics("accuracy") = (tally.matched.toDouble / tally.ops, "ratio")
      metrics("ci_coverage") = (tally.covered.toDouble / math.max(1, tally.tested), "ratio")
      metrics("ok_rate") = (1.0 - failed.toDouble / attempted, "ratio")
    } else {
      tracer.write(Paths.get(o.out, s"spans-${w.name}-${o.seed}.csv"))
      layerMetrics(env, stream, phase, tally, metrics)
      val (gridTracer, gridStream) =
        if (w.name == Workloads.grid.name) (tracer, stream) else gridProbe()
      cellMetrics(gridTracer, gridStream, metrics)
    }
    SparkSession.getActiveSession.foreach(_.stop())
    Report(mismatches.isEmpty && failed == 0, attempted, failed, metrics.toSeq)
  }

  /** One traced round of the grid workload at bench scale, for the per-cell
    * grid metrics of traced runs on the other workloads.
    */
  private def gridProbe(): (Tracer, OpStream) = {
    val tr = new Tracer(true)
    val (genv, _) = setup(Workloads.grid, new Tracer(false))
    val stream = new OpStream(genv.cells, o.seed)
    for (i <- 0 until stream.roundSize) record(genv, stream.cell(i), i, tracedOp(genv, stream, i, tr))
    (tr, stream)
  }

  /** Median sample and extract ms per (dataset, kind) of traced grid operations. */
  private def cellMetrics(tr: Tracer, stream: OpStream, metrics: mutable.Map[String, (Double, String)]): Unit = {
    val byCell = tr.spans.filter(_.op >= 0).groupBy(s => (stream.cell(s.op).dataset, stream.cell(s.op).kind, s.name))
    for (ds <- Workloads.Datasets; kind <- Workloads.Kinds; layer <- Seq("sample", "extract")) {
      val ms = byCell((ds, kind, layer)).map(_.nanos / 1e6).sorted.toArray
      metrics(s"grid.$ds.$kind.$layer.ms_p50") = (Quantiles.percentile(ms, 0.5), "ms")
    }
  }

  private def layerMetrics(env: Env, stream: OpStream, phase: Phase, tally: Tally,
                           metrics: mutable.Map[String, (Double, String)]): Unit = {
    val n = phase.latMs.length
    val setups = tracer.spans.filter(_.name == "setup").map(_.id).toArray
    def perSetup(layer: String): Double =
      Quantiles.median(setups.map(id => tracer.totalMillis(layer, _.parent == id)))
    metrics("graphgen.ms") = (perSetup("graphgen"), "ms")
    metrics("localgraph.build_ms") = (perSetup("localgraph"), "ms")
    metrics("localgraph.heap_mb") = (localGraphMb, "MB")
    metrics("truth.ms") = (perSetup("truth"), "ms")

    // Standalone LocalGraph.labels: median of 5 calls per hypothesis,
    // averaged over the operation mix.
    val labelsMs = env.cells.map(c => (c.dataset, c.h)).distinct.map { case (ds, h) =>
      val g = env.graphs(ds)
      (ds, h.name) -> Quantiles.median(Array.fill(5) {
        val s = tracer.open("labels")
        g.labels(h.path)
        tracer.close(s)
        s.nanos / 1e6
      })
    }.toMap
    metrics("labels.ms") = (Quantiles.mean(Array.tabulate(n) { i =>
      val c = stream.cell(i)
      labelsMs((c.dataset, c.h.name))
    }), "ms")

    val self = tracer.selfMillis(_.op >= 0)
    val layers = Seq("sample", "extract", "ttest")
    val layerSum = layers.map(l => self.getOrElse(l, 0.0)).sum
    for (l <- layers) {
      val ms = tracer.millis(l).sorted
      metrics(s"$l.ms_p50") = (Quantiles.percentile(ms, 0.5), "ms")
      metrics(s"$l.ms_p99") = (Quantiles.percentile(ms, 0.99), "ms")
      metrics(s"$l.self_ms") = (self.getOrElse(l, 0.0) / n, "ms")
      metrics(s"$l.share_pct") = (100 * self.getOrElse(l, 0.0) / layerSum, "%")
    }
    metrics("sample.fill") = (tally.fill / tally.ops, "ratio")
    metrics("sample.deg_sum") = (tally.degSum / tally.ops, "count")
    metrics("extract.capture") = (tally.capture / tally.ops, "ratio")
    metrics("extract.miss_rate") = (tally.missed.toDouble / tally.ops, "ratio")
    metrics("ttest.n") = (tally.n / math.max(1, tally.tested), "count")

    val untracedMs = phase.latMs.sum
    metrics("trace.unaccounted_pct") = (100 * (untracedMs - layerSum) / untracedMs, "%")
    metrics("trace.overhead_pct") = (100 * (1 - untracedMs / tracer.totalMillis("op")), "%")
    metrics("host.probe_us") = (Quantiles.median(phase.probeUs), "us")
  }
}

/** The result line: `metrics` holds (value, unit) per metric name. */
final case class Report(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, (Double, String))]) {
  def json: String = {
    val ms = metrics.map { case (k, (v, unit)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
      s""""$k": {"value": $v, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
