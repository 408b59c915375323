package repro.core

import Alloc.Alloc

/** Algorithm 4 — Search(τ, b_min): binary search over the ThresholdGreedy
  * threshold γ ∈ [0, (1+τ)γ_max], plus Algorithm 5 — RM_with_Oracle(τ).
  */
object Search {

  /** The two boundary solutions Search maintains, used by RMA's SeekUB:
    * `(T⃗₁*, b₁, γ₁)` with `b₁ ≥ b_min` and `(T⃗₂*, b₂, γ₂)` with `b₂ < b_min`.
    * `t1`/`t2` are `None` when never assigned (paper's `T⃗* = ∅`).
    */
  final case class SearchInfo(
      t1: Option[Alloc], b1: Int, g1: Double,
      t2: Option[Alloc], b2: Int, g2: Double,
      bMin: Int,
  )

  final case class SearchResult(best: Alloc, info: SearchInfo)

  /** Maximum binary-search iterations (safety net; the paper's stop rule
    * always fires well before this at any realistic precision).
    */
  private val MaxIters = 200

  def run(prob: RMProblem, tau: Double, bMin: Int): SearchResult = {
    val h = prob.h
    val minCpe = (0 until h).map(prob.oracle.cpe).min
    var g2 = (1 + tau) * prob.gammaMax
    var g1 = 0.0
    var gamma = g1
    var t1: Option[Alloc] = None; var b1 = 0
    var t2: Option[Alloc] = None; var b2 = 0
    var best: Alloc = null; var bestPi = Double.NegativeInfinity
    var iters = 0
    var stop = false
    while (!stop) {
      val r = ThresholdGreedy.run(prob, gamma)
      val pi = Alloc.piTotal(prob.oracle, r.alloc)
      if (pi > bestPi) { best = r.alloc; bestPi = pi }
      if (r.b >= bMin) { t1 = Some(r.alloc); b1 = r.b; g1 = gamma }
      else { t2 = Some(r.alloc); b2 = r.b; g2 = gamma }
      gamma = (g1 + g2) / 2
      iters += 1
      stop = ((1 + tau) * g1 >= g2) || (g2 <= minCpe / (h + 6)) || iters >= MaxIters
    }
    SearchResult(best, SearchInfo(t1, b1, g1, t2, b2, g2, bMin))
  }

  /** The h-dependent approximation ratio λ of Theorem 3.5. */
  def lambda(h: Int, tau: Double): Double =
    if (h == 1) 1.0 / 3
    else if (h <= 3) 1.0 / (2 * (h + 1) * (1 + tau))
    else 1.0 / ((h + 6) * (1 + tau))

  /** Algorithm 5 — RM_with_Oracle(τ): dispatch on the number of advertisers.
    * For h = 1 the result carries no SearchInfo (SeekUB's h = 1 branch).
    */
  final case class OracleResult(alloc: Alloc, info: Option[SearchInfo])

  def rmWithOracle(prob: RMProblem, tau: Double): OracleResult = {
    if (prob.h == 1) {
      val s = Greedy.run(prob, (0 until prob.n).toVector, 0)
      OracleResult(Vector(s), None)
    } else {
      val bMin = if (prob.h <= 3) 1 else 2
      val r = run(prob, tau, bMin)
      OracleResult(r.best, Some(r.info))
    }
  }
}
