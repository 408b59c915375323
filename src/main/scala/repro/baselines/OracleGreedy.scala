package repro.baselines

import repro.core.{LazyGreedy, RMProblem}
import repro.core.Alloc.Alloc

/** Aslay et al.'s oracle-mode baselines (§2.2):
  *
  *   - CA-Greedy (cost-agnostic): at each step select the element (u,i) with
  *     maximum marginal gain `π_i(u|S_i)`.
  *   - CS-Greedy (cost-sensitive): select by maximum marginal rate
  *     `ζ_i(u|S_i)`.
  *
  * Both respect the partition matroid (a node endorses one ad) and the
  * per-advertiser submodular knapsack `c_i(S_i)+π_i(S_i) ≤ B_i`. When the
  * chosen best element for advertiser i violates the budget, advertiser i's
  * selection terminates (the behaviour the paper's §5.2 analysis of
  * TI-CARM's superlinear-cost collapse describes).
  */
object OracleGreedy {

  def run(prob: RMProblem, costSensitive: Boolean): Alloc = {
    val lg = new LazyGreedy(prob, byRate = costSensitive)
    lg.pushAll()
    lg.run(dropDead = true) { (u, ad) =>
      if (lg.fits(u, ad, lg.sess.gain(u, ad))) lg.take(u, ad)
      else lg.close(ad)
      lg.open > 0
    }
    lg.alloc
  }

  def caGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = false)
  def csGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = true)
}
