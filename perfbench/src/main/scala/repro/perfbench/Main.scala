package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Alloc
import repro.core.Alloc.Alloc
import repro.eval.Experiments
import repro.graph.GraphGen
import scala.collection.mutable.ArrayBuffer

/** Command-line options (run.py passes them through). */
final case class Opts(
    workload: String = "",
    seed: Long = 1L,
    seconds: Double = 15,
    trace: Boolean = false,
    smoke: Boolean = false,
    provenance: Map[String, String] = Map.empty,
) {
  def scale: Scale = if (smoke) Scale.Smoke else Scale.Full

  /** The workload's dataset-lite; the smoke mode runs everything on lastfm-lite. */
  def spec(w: Workload): GraphGen.DatasetSpec = if (smoke) GraphGen.Lastfm else w.spec
}

/** What one workload's run reports: its metrics, how many operations it
  * attempted and how many failed, and the full record.
  */
final case class WorkloadResult(name: String, metrics: Seq[(String, Metric)], attempted: Int,
                                failed: Int, correct: Boolean, record: Map[String, Any])

/** Entry point. One JVM runs one workload (or all of them, in order) and
  * prints, per workload, a `record:` line with everything it measured, then
  * as its last line the result object.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList, Opts())
    val workloads =
      if (opts.workload == "all") Workload.All else Seq(Workload.byName(opts.workload))
    val cpus = Runtime.getRuntime.availableProcessors
    val master = s"local[$cpus]"
    val (spark, sparkStartS) = Clock.timed(session(master))
    try {
      // JIT warm-up: build another (the smallest) dataset-lite's environment
      // first, so the timed set-ups do not pay for cold code.
      val (_, warmEnvS) = Clock.timed(Experiments.env(spark, GraphGen.Lastfm))
      val results = workloads.map { w =>
        val r = if (opts.trace) Traced.run(spark, w, opts) else Untraced.run(spark, w, opts)
        val prov = Map(
          "spark_master" -> spark.sparkContext.master,
          "nproc" -> cpus,
          "driver_xmx" -> Jvm.xmxArg,
          "max_heap_mb" -> Jvm.maxHeapMb,
          "java_version" -> System.getProperty("java.version"),
          "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.vm.version")}",
          "spark_version" -> spark.version,
          "scala_version" -> scala.util.Properties.versionNumberString,
          "spark_start_s" -> sparkStartS,
          "jit_warmup_env_s" -> warmEnvS,
          "trace" -> opts.trace,
          "smoke" -> opts.smoke,
          "seconds" -> opts.seconds,
          "seed" -> opts.seed,
        ) ++ opts.provenance
        val full = r.copy(
          metrics = r.metrics ++ (if (opts.trace) Seq("spark.start_s" -> Metric(sparkStartS, "s")) else Nil),
          record = r.record ++ Map("workload" -> w.name, "provenance" -> prov))
        println("record: " + Json(full.record))
        full
      }
      val metrics =
        if (results.size == 1) results.head.metrics
        else results.flatMap(r => r.metrics.map { case (k, m) => s"${r.name}.$k" -> m })
      println(Json(Map(
        "correct" -> results.forall(_.correct),
        "attempted" -> results.map(_.attempted).sum,
        "failed" -> results.map(_.failed).sum,
        "metrics" -> scala.collection.immutable.ListMap(metrics: _*))))
    } finally spark.stop()
  }

  def session(master: String): SparkSession =
    SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  @annotation.tailrec
  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil =>
      require(o.workload.nonEmpty, "--workload is required")
      o
    case "--workload" :: v :: rest   => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest      => parse(rest, o.copy(trace = v == "1"))
    case "--smoke" :: rest           => parse(rest, o.copy(smoke = true))
    case "--provenance" :: k :: v :: rest =>
      parse(rest, o.copy(provenance = o.provenance + (k -> v)))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument '$other'")
  }
}

/** Shared steps of the untraced and traced runs. */
object Steps {

  /** Untimed solves before the timed ones (and before a traced replay). */
  val WarmupSolves = 1

  /** Fresh set-ups of `w`: each clears the program's per-JVM memos, then
    * times `Experiments.env` plus the workload's own preparation. The first
    * is an untimed warm-up; `opts.scale.setups` timed ones follow. Returns
    * the last environment and solver with the timed set-up times.
    */
  def setUp(spark: SparkSession, w: Workload, opts: Opts): (Experiments.Env, Solver, Seq[Double]) = {
    var env: Experiments.Env = null
    var solver: Solver = null
    val times = ArrayBuffer.empty[Double]
    for (_ <- 0 to opts.scale.setups) {
      val prev = env
      env = null; solver = null
      Memo.clear(Experiments); Memo.clear(GraphGen)
      val t0 = Clock.now()
      env = Experiments.env(spark, opts.spec(w))
      solver = w.prepare(spark, env, opts.seed, opts.scale)
      times += Clock.secondsSince(t0)
      require(prev == null || ((env ne prev) && (env.graph ne prev.graph)),
        "a program memo was not bypassed: the set-up returned a cached environment")
    }
    (env, solver, times.toSeq.drop(1))
  }

  /** Runs, times and checks solves. Every outcome must pass the solver's
    * gate and equal the first outcome (allocations, revenue, peak sets).
    */
  final class SolveLog(val solver: Solver) {
    val times = ArrayBuffer.empty[Double]
    val problems = ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0
    var first: Option[Outcome] = None

    /** One solve; returns its raw result and outcome (None if it threw). */
    def once(): Option[(solver.Raw, Outcome)] = {
      attempted += 1
      try {
        val (raw, s) = Clock.timed(solver.solve())
        times += s
        val o = solver.outcome(raw)
        val errs = solver.check(o) ++ first.toSeq.flatMap(sameAs(_, o))
        if (first.isEmpty) first = Some(o)
        if (errs.nonEmpty) { failed += 1; problems ++= errs.take(5) }
        Some((raw, o))
      } catch {
        case e: Exception =>
          failed += 1
          problems += s"solve threw ${e.getClass.getName}: ${e.getMessage}"
          None
      }
    }
  }

  def sameAs(a: Outcome, b: Outcome): Seq[String] =
    (if (sameAllocs(a.allocs, b.allocs)) Nil else Seq("allocation differs from the run's first solve")) ++
      (if (a.revenue == b.revenue) Nil else Seq(s"revenue ${b.revenue} differs from the first solve's ${a.revenue}")) ++
      (if (a.rrSetsPeak == b.rrSetsPeak) Nil
       else Seq(s"rr_sets_peak ${b.rrSetsPeak} differs from the first solve's ${a.rrSetsPeak}"))

  def sameAllocs(a: Seq[Alloc], b: Seq[Alloc]): Boolean =
    a.length == b.length && a.indices.forall(k => a(k).map(_.toVector) == b(k).map(_.toVector))
}

/** The untraced run: set-ups, warm-up solves, then solves over a timed
  * window of `--seconds` (at least `Scale.minSolves`), reporting medians.
  */
object Untraced {
  def run(spark: SparkSession, w: Workload, opts: Opts): WorkloadResult = {
    val (env, solver, setupTimes) = Steps.setUp(spark, w, opts)
    val warmTimes = Seq.fill(Steps.WarmupSolves)(Clock.timed(solver.solve())._2)
    val log = new Steps.SolveLog(solver)
    val jvm0 = Jvm.snapshot()
    Jvm.resetHeapPeak()
    val t0 = Clock.now()
    var k = 0
    while (k < opts.scale.minSolves || Clock.secondsSince(t0) < opts.seconds) { log.once(); k += 1 }
    val window = Map("window_s" -> Clock.secondsSince(t0), "heap_peak_mb" -> Jvm.heapPeakMb()) ++ Jvm.since(jvm0)
    val o = log.first
    val metrics = Seq(
      "solve_s" -> Metric(if (log.times.isEmpty) Double.NaN else Stats.median(log.times.toSeq), "s"),
      "setup_s" -> Metric(Stats.median(setupTimes), "s"),
      "revenue" -> Metric(o.map(_.revenue).getOrElse(Double.NaN), "revenue"),
      "rr_sets_peak" -> Metric(o.map(_.rrSetsPeak).getOrElse(Double.NaN), "sets"))
    WorkloadResult(w.name, metrics, log.attempted, log.failed,
      correct = log.failed == 0 && o.nonEmpty, record = Map(
        "dataset" -> env.name,
        "n" -> env.n,
        "setup_times_s" -> setupTimes,
        "warmup_solve_times_s" -> warmTimes,
        "solve_times_s" -> log.times.toSeq,
        "timed_window" -> window,
        "outcome" -> o.map(_.info).getOrElse(Map.empty),
        "seeds" -> o.map(_.allocs.map(Alloc.seedCount)).getOrElse(Nil),
        "problems" -> log.problems.toSeq))
  }
}
