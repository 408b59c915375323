package repro.core

/** Algorithm 1 — Greedy(U, i): single-advertiser 1/3-approximation.
  *
  * Repeatedly picks the candidate with maximum marginal *rate*
  * `ζ_i(v|S_i) = π_i(v|S_i)/(c_i(v)+π_i(v|S_i))`; the first node whose
  * addition would exceed the budget becomes the "stopple" set `D_i` and the
  * better of `S_i` and `D_i` is returned.
  */
object Greedy {

  /** Run over candidate set `candidates` for advertiser `i`; returns the
    * selected seed set.
    */
  def run(prob: RMProblem, candidates: IndexedSeq[Int], i: Int): IndexedSeq[Int] = {
    val lg = new LazyGreedy(prob, byRate = true)
    // Line 1: drop individually infeasible candidates.
    lg.push(i, candidates)
    var d = -1
    lg.run(dropDead = false) { (u, _) =>
      // u is the true argmax of ζ_i(·|S_i)
      val g = lg.sess.gain(u, i)
      if (lg.fits(u, i, g)) { lg.take(u, i); true }
      else { d = u; false } // D_i nonempty stops the loop
    }
    val sSet = lg.alloc(i)
    val piS = lg.sess.pi(i)
    val piD = if (d >= 0) prob.oracle.piOf(i, Seq(d)) else -1.0
    if (piD > piS) Vector(d) else sSet
  }
}
