package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.baselines.TICARM
import repro.core.{Alloc, CostModel, RMA, RMProblem, Search}
import repro.core.Alloc.Alloc
import repro.eval.{Evaluator, Experiments, Tables}
import repro.graph.GraphGen
import repro.rrset.RRCollection

/** What one solve returned: its allocations (one per algorithm or cost
  * model), the revenue they earn on the environment's independent evaluation
  * collection, the most RR sets held at once, and diagnostics for the record.
  */
final case class Outcome(allocs: Seq[Alloc], revenue: Double, rrSetsPeak: Double,
                         info: Map[String, Any])

/** A workload prepared for one environment and seed: `solve` runs one timed
  * solve through the program's public entry points, `check` lists what is
  * wrong with an outcome (empty when it passes the correctness gate).
  */
trait Solver {
  type Raw
  /** One solve: only this call is timed. */
  def solve(): Raw
  /** Scores a solve's result on the evaluation collection (untimed). */
  def outcome(r: Raw): Outcome
  def check(o: Outcome): Seq[String]
}

/** Sizes that the smoke mode shrinks: the oracle collection, the TI-* cap,
  * the number of timed set-ups and the fewest timed solves of a run.
  */
final case class Scale(oracleSets: Int, tiMaxSetsPerAd: Int, setups: Int, minSolves: Int)

object Scale {
  val Full: Scale = Scale(oracleSets = 1_000_000, tiMaxSetsPerAd = 200_000, setups = 3, minSolves = 3)
  val Smoke: Scale = Scale(oracleSets = 100_000, tiMaxSetsPerAd = 20_000, setups = 1, minSolves = 2)
}

sealed abstract class Workload(val name: String, val spec: GraphGen.DatasetSpec) {
  /** Work of the set-up beyond `Experiments.env`, timed into `setup_s`. */
  def prepare(spark: SparkSession, env: Experiments.Env, seed: Long, scale: Scale): Solver
}

object Workload {
  /** Linear seed-incentive cost with α = 0.1, the paper's default setting. */
  val Alpha = 0.1

  /** `rma-tic`: one `RMA.run` on flixster-lite under Tables' constants and
    * budget rule (RMA gets B/(1+ϱ)).
    */
  object RmaTic extends Workload("rma-tic", GraphGen.Flixster) {
    def prepare(spark: SparkSession, env: Experiments.Env, seed: Long, scale: Scale): Solver =
      new RmaSolver(spark, env, seed)
  }

  /** `oracle-search`: `Search.rmWithOracle` once per cost model over one
    * fixed flixster-lite collection built in the set-up.
    */
  object OracleSearch extends Workload("oracle-search", GraphGen.Flixster) {
    def prepare(spark: SparkSession, env: Experiments.Env, seed: Long, scale: Scale): Solver =
      new OracleSolver(env, env.source.collection(scale.oracleSets, oracleSeed(seed)))
  }

  /** `ti-baselines`: `TICARM.tiCarm` then `tiCsrm` on lastfm-lite. */
  object TiBaselines extends Workload("ti-baselines", GraphGen.Lastfm) {
    def prepare(spark: SparkSession, env: Experiments.Env, seed: Long, scale: Scale): Solver =
      new TiSolver(spark, env, seed, scale.tiMaxSetsPerAd)
  }

  val All: Seq[Workload] = Seq(RmaTic, OracleSearch, TiBaselines)

  def byName(s: String): Workload =
    All.find(_.name == s).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$s' (known: ${All.map(_.name).mkString(", ")}, all)"))

  /** Seed of the oracle collection: clear of the calibration and evaluation
    * seeds `Experiments.env` uses (90001, 99001).
    */
  def oracleSeed(seed: Long): Long = 5_000_000L + seed

  def rmaConfig(env: Experiments.Env, seed: Long): RMA.Config =
    RMA.Config(eps = Tables.EpsRma, delta = 1.0 / env.n, tau = Tables.TauDefault,
      rho = Tables.Rho, seed = seed)

  def rmaBudgets(env: Experiments.Env): Array[Double] = env.budgets.map(_ / (1 + Tables.Rho))
}

/** The correctness gate's checks. */
object Gate {
  /** Disjoint seed sets with every id in [0, n). */
  def wellFormed(a: Alloc, n: Int, what: String): Seq[String] = {
    val bad = a.flatten.filter(u => u < 0 || u >= n)
    (if (Alloc.disjoint(a)) Nil else Seq(s"$what: seed sets overlap")) ++
      (if (bad.isEmpty) Nil else Seq(s"$what: seed ids outside [0, $n): ${bad.take(5).mkString(",")}"))
  }

  /** Each advertiser's payment c_i(S_i) + π_i(S_i) measured on `coll` is
    * within its budget.
    */
  def payments(a: Alloc, coll: RRCollection, costs: Array[Array[Double]],
               budgets: Array[Double], what: String): Seq[String] =
    a.indices.flatMap { i =>
      val pay = a(i).map(costs(i)).sum + coll.piOf(i, a(i))
      if (pay <= budgets(i) * (1 + 1e-9) + 1e-9) None
      else Some(f"$what: advertiser $i pays $pay%.3f > budget ${budgets(i)}%.3f")
    }

  def revenue(o: Outcome): Seq[String] =
    if (o.revenue > 0) Nil else Seq(s"revenue ${o.revenue} is not positive")
}

final class RmaSolver(spark: SparkSession, env: Experiments.Env, seed: Long) extends Solver {
  val costs: Array[Array[Double]] = env.costs(CostModel.Linear, Workload.Alpha)
  private val budgets = Workload.rmaBudgets(env)
  private val cfg = Workload.rmaConfig(env, seed)
  private val evaluator = new Evaluator(env.evalColl, costs, env.budgets)

  type Raw = RMA.Result

  def solve(): RMA.Result = RMA.run(spark, env.model, env.cpe, budgets, costs, cfg)

  def outcome(r: RMA.Result): Outcome =
    Outcome(Seq(r.alloc), evaluator.revenue(r.alloc), 2.0 * r.numSets, Map(
      "iterations" -> r.iterations, "num_sets" -> r.numSets, "beta" -> r.beta,
      "feasible_at_stop" -> r.feasibleAtStop, "lambda" -> r.lambda,
      "theta0" -> r.theta0, "theta_max" -> r.thetaMax, "seeds" -> Alloc.seedCount(r.alloc)))

  /** RMA's bicriteria guarantee: payments within (1+ϱ)·B/(1+ϱ), the Table 2
    * budget, on the evaluator.
    */
  def check(o: Outcome): Seq[String] =
    Gate.revenue(o) ++ Gate.wellFormed(o.allocs.head, env.n, "RMA") ++
      Gate.payments(o.allocs.head, env.evalColl, costs, env.budgets, "RMA")
}

final class OracleSolver(env: Experiments.Env, val coll: RRCollection) extends Solver {
  val models: Seq[CostModel] = CostModel.all
  val costs: Seq[Array[Array[Double]]] = models.map(env.costs(_, Workload.Alpha))
  private val evaluators = costs.map(new Evaluator(env.evalColl, _, env.budgets))

  /** A fresh problem per solve, so its lazily computed singleton table is
    * part of every timed solve.
    */
  def problem(k: Int): RMProblem = new RMProblem(coll, env.budgets, costs(k))

  type Raw = Seq[Alloc]

  def solve(): Seq[Alloc] =
    models.indices.map(k => Search.rmWithOracle(problem(k), Tables.TauDefault).alloc)

  def outcome(allocs: Seq[Alloc]): Outcome =
    Outcome(allocs, allocs.indices.map(k => evaluators(k).revenue(allocs(k))).sum, coll.numSets.toDouble,
      Map("seeds" -> models.indices.map(k => models(k).name -> Alloc.seedCount(allocs(k))).toMap))

  /** Search keeps every payment within B on its own oracle collection. */
  def check(o: Outcome): Seq[String] =
    Gate.revenue(o) ++ models.indices.flatMap { k =>
      val what = s"Search/${models(k).name}"
      Gate.wellFormed(o.allocs(k), env.n, what) ++
        Gate.payments(o.allocs(k), coll, costs(k), env.budgets, what)
    }
}

final class TiSolver(spark: SparkSession, env: Experiments.Env, seed: Long, maxSetsPerAd: Int)
    extends Solver {
  val costs: Array[Array[Double]] = env.costs(CostModel.Linear, Workload.Alpha)
  private val cfg = TICARM.Config(eps = Tables.EpsTi, seed = seed, maxSetsPerAd = maxSetsPerAd)
  private val evaluator = new Evaluator(env.evalColl, costs, env.budgets)

  type Raw = (TICARM.Result, TICARM.Result)

  def carm(): TICARM.Result = TICARM.tiCarm(spark, env.model, env.cpe, env.budgets, costs, cfg)
  def csrm(): TICARM.Result = TICARM.tiCsrm(spark, env.model, env.cpe, env.budgets, costs, cfg)

  def solve(): (TICARM.Result, TICARM.Result) = (carm(), csrm())

  def outcome(r: (TICARM.Result, TICARM.Result)): Outcome = {
    val (carm, csrm) = r
    def info(r: TICARM.Result) = Map("regenerations" -> r.regenerations,
      "sets_generated" -> r.totalSetsGenerated, "peak_sets" -> r.peakSets,
      "cap_binds" -> (r.peakSets >= env.cpe.length.toLong * maxSetsPerAd),
      "seeds" -> Alloc.seedCount(r.alloc), "millis" -> r.millis)
    Outcome(Seq(carm.alloc, csrm.alloc), evaluator.revenue(carm.alloc) + evaluator.revenue(csrm.alloc),
      math.max(carm.peakSets, csrm.peakSets).toDouble,
      Map("ti_carm" -> info(carm), "ti_csrm" -> info(csrm), "max_sets_per_ad" -> maxSetsPerAd))
  }

  /** TI-* check budgets conservatively on their own samples, which the
    * benchmark cannot see, so only the well-formedness checks apply.
    */
  def check(o: Outcome): Seq[String] =
    Gate.revenue(o) ++ Gate.wellFormed(o.allocs(0), env.n, "TI-CARM") ++
      Gate.wellFormed(o.allocs(1), env.n, "TI-CSRM")
}
