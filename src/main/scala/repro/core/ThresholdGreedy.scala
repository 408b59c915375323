package repro.core

import Alloc.Alloc

/** Algorithms 2 & 3 — ThresholdGreedy(γ) and Fill.
  *
  * ThresholdGreedy selects by maximum marginal *gain* but only accepts
  * elements whose marginal *rate* clears `γ/B_i`; the first over-budget node
  * per advertiser is the stopple `D_i` and depletes that advertiser
  * (`I`/`b` count the depleted ones). If exactly one advertiser depleted,
  * a fallback `Greedy` run provides `A_i`; each advertiser keeps the best of
  * `{S_i, D_i, A_i}` and `Fill` then greedily (by rate) tops up every
  * advertiser whose budget is not yet depleted.
  */
object ThresholdGreedy {

  /** Result: the allocation after Fill, and `b` = number of advertisers whose
    * budget was depleted during the threshold phase.
    */
  final case class TGResult(alloc: Alloc, b: Int)

  def run(prob: RMProblem, gamma: Double): TGResult = {
    val n = prob.n; val h = prob.h
    val oracle = prob.oracle
    // M: all individually feasible elements, keyed by marginal gain.
    val lg = new LazyGreedy(prob, byRate = false)
    lg.pushAll()
    val dOf = Array.fill(h)(-1) // stopple node per advertiser
    lg.run(dropDead = false) { (u, ad) =>
      // (u, ad) is the max-marginal-gain element of M; it is now removed.
      val g = lg.sess.gain(u, ad)
      val c = prob.costs(ad)(u)
      val rate = if (c + g <= 0) 0.0 else g / (c + g)
      if (rate >= gamma / prob.budgets(ad) - 1e-12 && dOf(ad) < 0 && !lg.assigned(u)) {
        if (lg.fits(u, ad, g)) lg.take(u, ad)
        else {
          dOf(ad) = u
          lg.assigned(u) = true // u ∈ D_ad: no other advertiser may take it
          lg.close(ad)          // ad's budget is depleted
        }
      }
      lg.open > 0
    }

    val s = lg.alloc
    val b = h - lg.open

    // Line 9–10: single-depleted fallback Greedy over V minus all S_j.
    val aFallback: Array[IndexedSeq[Int]] = Array.fill(h)(Vector.empty)
    if (b == 1) {
      val ad = dOf.indexWhere(_ >= 0)
      val inS = new Array[Boolean](n)
      s.foreach(_.foreach(inS(_) = true))
      val candidates = (0 until n).filter(!inS(_)).toVector
      aFallback(ad) = Greedy.run(prob, candidates, ad)
    }

    // Line 11: per advertiser keep the best of {S_j, D_j, A_j}.
    val sPrime: Alloc = Vector.tabulate(h) { j =>
      val options = Seq(
        s(j),
        if (dOf(j) >= 0) Vector(dOf(j)) else Vector.empty[Int],
        aFallback(j),
      )
      options.maxBy(x => oracle.piOf(j, x))
    }

    TGResult(fill(prob, sPrime), b)
  }

  /** Algorithm 3 — Fill(S⃗): greedy top-up by marginal rate until all budgets
    * are depleted or no feasible element remains.
    */
  def fill(prob: RMProblem, start: Alloc): Alloc = {
    val lg = new LazyGreedy(prob, byRate = true)
    for (i <- 0 until prob.h; u <- start(i)) lg.take(u, i)
    lg.pushAll()
    lg.run(dropDead = false) { (u, ad) =>
      // (u, ad) leaves M whether or not it is taken
      if (!lg.assigned(u) && lg.fits(u, ad, lg.sess.gain(u, ad))) lg.take(u, ad)
      true
    }
    lg.alloc
  }
}
