package repro.perfbench

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import repro.baselines.{SingleAdModel, TIM}
import repro.core.{Alloc, CostModel, RMA, RMProblem, Search, ThresholdGreedy}
import repro.core.Alloc.Alloc
import repro.eval.{Evaluator, Experiments, Tables}
import repro.graph.{GraphGen, InfluenceModel, InfluenceModels, SocialGraph}
import repro.rrset.{RRCollection, RRSamplerState, RRSource}
import scala.collection.mutable

/** Counts the Spark jobs that `body` submits, through a job group and the
  * status tracker. RR generation is the program's only Spark job after
  * set-up, so inside a solve these are the sampling jobs of `RRSource`.
  */
object SparkJobs {
  private val groups = new AtomicInteger

  def around[T](sc: SparkContext)(body: => T): (T, Int) = {
    val group = s"perfbench-${groups.incrementAndGet()}"
    sc.setJobGroup(group, group)
    try {
      val r = body
      (r, sc.statusTracker.getJobIdsForGroup(group).length)
    } finally sc.clearJobGroup()
  }
}

/** The traced run. It re-drives the workload's set-up and solve through the
  * public functions of each layer, timing each call as a span, checks that
  * the re-driven results equal the program's own, and adds single-layer
  * probes. Its numbers are the `per_layer` metrics.
  */
object Traced {

  def run(spark: SparkSession, w: Workload, opts: Opts): WorkloadResult = {
    val tr = new Tracer
    val env = Experiments.env(spark, opts.spec(w))
    val problems = mutable.ArrayBuffer.empty[String]
    problems ++= setupReplay(spark, opts.spec(w), env, tr)

    // Untraced reference: warm-up, then one timed solve through the gate.
    val solver = w.prepare(spark, env, opts.seed, opts.scale)
    for (_ <- 0 until Steps.WarmupSolves) solver.solve()
    val log = new Steps.SolveLog(solver)
    val reference = log.once().map(_._2)
    val untracedS = log.times.headOption.getOrElse(Double.NaN)

    val jvm0 = Jvm.snapshot()
    Jvm.resetHeapPeak()
    val rep = (w, solver) match {
      case (Workload.RmaTic, s: RmaSolver)        => rmaReplay(spark, env, s, opts.seed, tr)
      case (Workload.OracleSearch, s: OracleSolver) => oracleReplay(spark, s, tr)
      case (Workload.TiBaselines, s: TiSolver)      => tiRun(spark, s, tr, "trace.total")
      case _ => throw new IllegalStateException(s"no replay for ${w.name}")
    }
    val jvm = Jvm.since(jvm0) + ("heap_peak_mb" -> Jvm.heapPeakMb())

    // The replay must reproduce the program's own solve.
    reference match {
      case None => problems += "no reference solve succeeded"
      case Some(o) =>
        if (!Steps.sameAllocs(o.allocs, rep.allocs)) problems += "replayed allocation differs from the program's"
        rep.numSets.foreach { k =>
          val ref = o.info.get("num_sets")
          if (!ref.contains(k)) problems += s"replayed |R1| = $k differs from RMA.run's ${ref.getOrElse("?")}"
        }
    }
    if (w == Workload.OracleSearch && rep.jobs != 0)
      problems += s"the oracle solve ran ${rep.jobs} Spark jobs; it must generate no RR sets"

    val probes = layerProbes(spark, env, rep, reference, opts, tr)
    // The baselines layer: the workload's own TI-* solve, else one TI-CARM +
    // TI-CSRM solve on lastfm-lite at the workload's seed.
    val ti = if (w == Workload.TiBaselines) rep else {
      val lastfm = Experiments.env(spark, GraphGen.Lastfm)
      tiRun(spark, new TiSolver(spark, lastfm, opts.seed, opts.scale.tiMaxSetsPerAd), tr, "probe.ti")
    }
    val total = tr.total("trace.total")
    val accounted = tr.all.filter(s => s.parent >= 0 && tr.all(s.parent).name == "trace.total")
      .map(_.seconds).sum
    def t(name: String) = tr.total(name)
    val metrics = Seq(
      "graph.build_s" -> Metric(t("graph.build"), "s"),
      "graph.model_s" -> Metric(t("graph.model"), "s"),
      "rrset.source_init_s" -> Metric(probes("source_init_s"), "s"),
      "rrset.generate_s" -> Metric(rep.generateS, "s"),
      "rrset.generate_cpu_s" -> Metric(rep.generateCpuS, "s"),
      "rrset.parallel_eff" -> Metric(
        if (rep.generateS > 0) rep.generateCpuS / (rep.generateS * spark.sparkContext.defaultParallelism) else 0.0,
        "ratio"),
      "rrset.jobs" -> Metric(rep.jobs.toDouble, "count"),
      "rrset.index_s" -> Metric(t("probe.index"), "s"),
      "rrset.append_s" -> Metric(t("probe.append"), "s"),
      "rrset.kernel_sets_per_s" -> Metric(probes("kernel_sets_per_s"), "sets/s"),
      "rrset.kernel_subsim_sets_per_s" -> Metric(probes("kernel_subsim_sets_per_s"), "sets/s"),
      "rrset.call_overhead_s" -> Metric(probes("call_overhead_s"), "s"),
      "rrset.sets" -> Metric(rep.sets.toDouble, "sets"),
      "rrset.incidences" -> Metric(rep.incidences.toDouble, "count"),
      "rrset.bytes" -> Metric(rep.bytes.toDouble, "bytes"),
      "core.singleton_s" -> Metric(t("core.singleton"), "s"),
      "core.tg_probe_s" -> Metric(t("probe.tg"), "s"),
      "core.search_s" -> Metric(t("core.search"), "s"),
      "core.bounds_s" -> Metric(t("core.bounds"), "s"),
      "core.seeds" -> Metric(rep.allocs.map(Alloc.seedCount).sum.toDouble, "seeds"),
      "baselines.kpt_s" -> Metric(probes("kpt_s"), "s"),
      "baselines.ti_solve_s" -> Metric(t(if (w == Workload.TiBaselines) "trace.total" else "probe.ti"), "s"),
      "baselines.regenerations" -> Metric(ti.regenerations.toDouble, "count"),
      "baselines.sets_generated" -> Metric(ti.setsGenerated.toDouble, "sets"),
      "baselines.peak_sets" -> Metric(ti.peakSets.toDouble, "sets"),
      "eval.calib_s" -> Metric(t("eval.calib"), "s"),
      "eval.evalcoll_s" -> Metric(t("eval.evalcoll"), "s"),
      "eval.revenue_s" -> Metric(probes("revenue_s"), "s"),
      "jvm.gc_s" -> Metric(jvm("gc_s"), "s"),
      "jvm.jit_ms" -> Metric(jvm("jit_ms"), "ms"),
      "jvm.heap_peak_mb" -> Metric(jvm("heap_peak_mb"), "MiB"),
      "trace.total_s" -> Metric(total, "s"),
      "trace.untraced_solve_s" -> Metric(untracedS, "s"),
      "trace.overhead_s" -> Metric(total - untracedS, "s"),
      "trace.unaccounted_s" -> Metric(total - accounted, "s"),
    )
    // Attempted: the reference solve and the replay.
    WorkloadResult(w.name, metrics, log.attempted + 1, log.failed + (if (problems.isEmpty) 0 else 1),
      correct = log.failed == 0 && problems.isEmpty, record = Map(
        "dataset" -> env.name,
        "replay_equal" -> problems.isEmpty,
        "problems" -> (log.problems ++ problems).toSeq,
        "untraced_solve_times_s" -> log.times.toSeq,
        "replay" -> rep.info,
        "ti" -> ti.info,
        "jvm_window" -> jvm,
        "spans" -> tr.toJson))
  }

  /** What a replayed solve yields. Counts that a workload's solve does not
    * expose are 0.
    */
  final case class Replay(
      allocs: Seq[Alloc],
      numSets: Option[Int] = None,
      generateS: Double = 0, generateCpuS: Double = 0, jobs: Int = 0,
      sets: Long = 0, incidences: Long = 0, bytes: Long = 0,
      regenerations: Int = 0, setsGenerated: Long = 0, peakSets: Long = 0,
      working: Option[RRCollection] = None, probe: Option[RMProblem] = None,
      info: Map[String, Any] = Map.empty)

  /** Estimated bytes of collections from their public counts: flat storage
    * (1-byte tag, 4-byte start and stamp per set, 4 bytes per member) plus the
    * inverted index (4 bytes per (advertiser, node) head and per incidence).
    */
  def bytesOf(cs: Seq[RRCollection]): Long =
    cs.map(c => 9L * c.numSets + 8L * c.totalNodes + 4L * (c.h.toLong * c.n + 1)).sum

  /** Set-up replay: the steps of `Experiments.env`, each a span. The rebuilt
    * graph, σ table and evaluation collection must equal the program's.
    */
  def setupReplay(spark: SparkSession, spec: GraphGen.DatasetSpec, env: Experiments.Env,
                  tr: Tracer): Seq[String] = {
    val g = tr.span("graph.build")(SocialGraph.fromEdgesDf(spec.n, GraphGen.edgesDf(spark, spec)))
    val model: InfluenceModel = tr.span("graph.model")(ticModel(spec, g))
    val source = tr.span("setup.source_init")(new RRSource(spark, model, Experiments.cpes))
    val sigma = tr.span("eval.calib") {
      val calib = source.collection(Experiments.calibSets(g.n), seed = 90001L)
      Array.tabulate(Experiments.H)(i => Array.tabulate(g.n)(u => calib.sigmaSingleton(u, i)))
    }
    val evalColl = tr.span("eval.evalcoll")(source.collection(Experiments.evalSets(g.n), seed = 99001L))
    (if (g.src.sameElements(env.graph.src) && g.dst.sameElements(env.graph.dst)) Nil
     else Seq("rebuilt graph differs from Experiments.env's")) ++
      (if (sigma.indices.forall(i => sigma(i).sameElements(env.sigmaSingle(i)))) Nil
       else Seq("rebuilt sigma table differs from Experiments.env's")) ++
      (if (sameContents(evalColl, env.evalColl)) Nil
       else Seq("rebuilt evaluation collection differs from Experiments.env's"))
  }

  private def ticModel(spec: GraphGen.DatasetSpec, g: SocialGraph): InfluenceModel = spec.name match {
    case "lastfm-lite"   => InfluenceModels.lastfmTic(g, Experiments.H)
    case "flixster-lite" => InfluenceModels.flixsterTic(g, Experiments.H)
    case other           => throw new IllegalArgumentException(s"no TIC model for $other")
  }

  def sameContents(a: RRCollection, b: RRCollection): Boolean =
    a.numSets == b.numSets && a.totalNodes == b.totalNodes &&
      (0 until a.numSets).forall(s => a.tagOf(s) == b.tagOf(s) && a.setEnd(s) == b.setEnd(s)) &&
      (0 until a.totalNodes.toInt).forall(p => a.memberAt(p) == b.memberAt(p))

  /** A collection's contents as one packed batch (tags, sizes, members). */
  def packed(c: RRCollection): (Array[Byte], Array[Int], Array[Int]) = {
    val tags = Array.tabulate(c.numSets)(s => c.tagOf(s).toByte)
    val sizes = Array.tabulate(c.numSets)(s => c.setEnd(s) - c.setStart(s))
    val nodes = Array.tabulate(c.totalNodes.toInt)(c.memberAt)
    (tags, sizes, nodes)
  }

  /** `RMA.run` re-driven step by step, in its order, from public functions. */
  def rmaReplay(spark: SparkSession, env: Experiments.Env, s: RmaSolver, seed: Long,
                tr: Tracer): Replay = {
    val cfg = Workload.rmaConfig(env, seed)
    val budgets = Workload.rmaBudgets(env)
    val costs = s.costs
    val cpe = env.cpe
    var genCpuNs = 0L
    def generate[T](body: => T): T = {
      val c0 = Jvm.processCpuNs()
      try tr.span("rrset.generate")(body) finally genCpuNs += Jvm.processCpuNs() - c0
    }
    val ((alloc, r1, r2, inner, iters, beta), jobs) = SparkJobs.around(spark.sparkContext) {
      tr.span("trace.total") {
        val n = env.n
        val h = cpe.length
        val (lam, thMax, th0, q) = tr.span("core.bounds") {
          val gamma = cpe.sum
          val lam = Search.lambda(h, cfg.tau)
          val deltaP = cfg.delta / 4
          val bMin = budgets.min
          val mus = Array.tabulate(h)(i => RMA.muOf(costs(i), cpe(i), (1 + cfg.rho) * budgets(i)))
          val thMax = RMA.thetaMax(n, gamma, lam, cfg.eps, deltaP, cfg.rho, bMin, mus)
          val theta0 = 4.0 * n * gamma * (2 + cfg.rho / 3) / (cfg.rho * cfg.rho * bMin) * math.log(h / deltaP)
          val tMax = math.max(1, math.ceil(math.log(thMax / theta0) / math.log(2)).toInt)
          val q = math.log((h + 2) * tMax / deltaP)
          val th0 = math.min(cfg.maxSetsCap.toLong, math.max(256L, theta0.toLong)).toInt
          (lam, thMax, th0, q)
        }
        val source = tr.span("rrset.source_init")(new RRSource(spark, env.model, cpe))
        val r1 = generate(source.collection(th0, cfg.seed * 2 + 1, cfg.subsim))
        val r2 = generate(source.collection(th0, cfg.seed * 2 + 2, cfg.subsim))
        var iter = 0
        var out: (Alloc, RRCollection, RRCollection, RMProblem, Int, Double) = null
        while (out == null) {
          iter += 1
          val inner = new RMProblem(r1, budgets.map(_ * (1 + cfg.rho / 2)), costs)
          tr.span("core.singleton") { inner.singletonPi; inner.gammaMax }
          val or = tr.span("core.search")(Search.rmWithOracle(inner, cfg.tau))
          val a = or.alloc
          val (beta, stop) = tr.span("core.bounds") {
            val z = RMA.seekUB(r1, a, or.info, lam, h)
            var feasible = true
            for (i <- 0 until h) {
              val ubi = RMA.ub(r2.piOf(i, a(i)), r2.scalePerSet, q)
              if (ubi > (1 + cfg.rho) * budgets(i) - a(i).map(costs(i)).sum + 1e-9) feasible = false
            }
            val lbS = RMA.lb(Alloc.piTotal(r2, a), r2.scalePerSet, q)
            val ubO = RMA.ub(z, r1.scalePerSet, q)
            val beta = if (ubO <= 0) 1.0 else lbS / ubO
            (beta, (beta >= lam - cfg.eps && feasible) || r1.numSets >= thMax || r1.numSets >= cfg.maxSetsCap)
          }
          if (stop) out = (a, r1, r2, inner, iter, beta)
          else generate {
            val g1 = math.min(r1.numSets.toLong, cfg.maxSetsCap.toLong - r1.numSets).toInt
            val g2 = math.min(r2.numSets.toLong, cfg.maxSetsCap.toLong - r2.numSets).toInt
            source.appendTo(r1, g1, cfg.seed * 1000 + iter * 2 + 1, cfg.subsim)
            source.appendTo(r2, g2, cfg.seed * 1000 + iter * 2 + 2, cfg.subsim)
          }
        }
        out
      }
    }
    Replay(Seq(alloc), numSets = Some(r1.numSets), probe = Some(inner),
      generateS = tr.total("rrset.generate"), generateCpuS = genCpuNs / 1e9, jobs = jobs,
      sets = r1.numSets.toLong + r2.numSets, incidences = r1.totalNodes + r2.totalNodes,
      bytes = bytesOf(Seq(r1, r2)), working = Some(r1),
      info = Map("iterations" -> iters, "beta" -> beta, "num_sets" -> r1.numSets))
  }

  /** The oracle solve re-driven per cost model: singleton table, then Search.
    * It generates no RR sets: its `generateS` is 0, and `run` fails the
    * replay unless it ran no Spark job.
    */
  def oracleReplay(spark: SparkSession, s: OracleSolver, tr: Tracer): Replay = {
    val ((allocs, probs), jobs) = SparkJobs.around(spark.sparkContext) {
      tr.span("trace.total") {
        s.models.indices.map { k =>
          val prob = s.problem(k)
          tr.span("core.singleton") { prob.singletonPi; prob.gammaMax }
          (tr.span("core.search")(Search.rmWithOracle(prob, Tables.TauDefault).alloc), prob)
        }.unzip
      }
    }
    Replay(allocs, jobs = jobs, sets = s.coll.numSets, incidences = s.coll.totalNodes, bytes = bytesOf(Seq(s.coll)),
      working = Some(s.coll), probe = Some(probs.head),
      info = Map("seeds" -> s.models.indices.map(k => s.models(k).name -> Alloc.seedCount(allocs(k))).toMap))
  }

  /** TI-CARM and TI-CSRM are single calls, timed as one span. Their RR
    * generation happens inside them, so only its Spark jobs are counted.
    */
  def tiRun(spark: SparkSession, s: TiSolver, tr: Tracer, span: String): Replay = {
    val ((carm, csrm), jobs) = SparkJobs.around(spark.sparkContext) {
      tr.span(span)((tr.span("baselines.ti_carm")(s.carm()), tr.span("baselines.ti_csrm")(s.csrm())))
    }
    Replay(Seq(carm.alloc, csrm.alloc), jobs = jobs,
      sets = math.max(carm.peakSets, csrm.peakSets),
      regenerations = carm.regenerations + csrm.regenerations,
      setsGenerated = carm.totalSetsGenerated + csrm.totalSetsGenerated,
      peakSets = math.max(carm.peakSets, csrm.peakSets),
      info = Map("ti_carm_s" -> carm.millis / 1000.0, "ti_csrm_s" -> csrm.millis / 1000.0,
        "spark_jobs" -> jobs))
  }

  /** Single-layer probes, each the median of a few calls. */
  def layerProbes(spark: SparkSession, env: Experiments.Env, rep: Replay, ref: Option[Outcome],
                  opts: Opts, tr: Tracer): Map[String, Double] = {
    val seed = opts.seed
    def med(k: Int)(body: => Unit): Double = Stats.median(Seq.fill(k)(Clock.timed(body)._2))

    // Index and append as separate calls over the solve's working collection
    // (the evaluation collection where the solve's own is not reachable).
    val work = rep.working.getOrElse(env.evalColl)
    val (tags, sizes, nodes) = packed(work)
    val copy = new RRCollection(work.n, work.cpeArr)
    tr.span("probe.append")(copy.addPacked(tags, sizes, nodes))
    tr.span("probe.index")(copy.rebuildIndex())

    val sourceInit = med(3)(new RRSource(spark, env.model, env.cpe))
    val callOverhead = med(5)(env.source.collection(1, seed))
    val single = new RRSource(spark, new SingleAdModel(env.model, 0), Array(env.cpe(0)))
    val kpt = med(3)(TIM.kptEstimate(single, env.graph, 1, 1.0, seed, subsim = false))

    // One ThresholdGreedy probe at γ = 0 on the solve's Search problem (on
    // ti-baselines, which has none, the linear problem over the evaluation
    // collection).
    val costs = env.costs(CostModel.Linear, Workload.Alpha)
    val prob = rep.probe.getOrElse(new RMProblem(env.evalColl, env.budgets, costs))
    prob.gammaMax
    tr.span("probe.tg")(ThresholdGreedy.run(prob, 0.0))

    val evaluator = new Evaluator(env.evalColl, costs, env.budgets)
    val allocs = ref.map(_.allocs).getOrElse(rep.allocs)
    val revenueS = med(5)(allocs.foreach(evaluator.revenue))

    // Single-thread sampler kernel on flixster-lite TIC (the smoke mode keeps
    // to its own dataset).
    val flix = if (env.name == GraphGen.Flixster.name || opts.smoke) env.model
               else InfluenceModels.flixsterTic(GraphGen.graph(spark, GraphGen.Flixster), Experiments.H)
    val state = RRSamplerState(flix, Experiments.cpes)
    Map("source_init_s" -> sourceInit, "call_overhead_s" -> callOverhead, "kpt_s" -> kpt,
      "revenue_s" -> revenueS,
      "kernel_sets_per_s" -> kernelRate(state, subsim = false, seed),
      "kernel_subsim_sets_per_s" -> kernelRate(state, subsim = true, seed))
  }

  /** Sets per second of `RRSamplerState.generate` on one thread: the median
    * of three timed batches after one warm-up batch.
    */
  def kernelRate(st: RRSamplerState, subsim: Boolean, seed: Long, batch: Int = 150_000): Double = {
    val queue = new Array[Int](st.n)
    val stamp = new Array[Int](st.n)
    val rng = new SplittableRandom(seed)
    var cur = 0
    def once(): Double = Clock.timed {
      var k = 0
      while (k < batch) {
        cur += 1
        st.generate(st.sampleAd(rng), rng.nextInt(st.n), rng, queue, stamp, cur, subsim)
        k += 1
      }
    }._2
    once()
    batch / Stats.median(Seq.fill(3)(once()))
  }
}
