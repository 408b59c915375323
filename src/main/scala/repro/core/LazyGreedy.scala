package repro.core

import Alloc.Alloc

/** The lazy-evaluation greedy (CELF, Leskovec et al., KDD 2007) shared by
  * Greedy (Alg 1), ThresholdGreedy and Fill (Algs 2–3) and the CA/CS-Greedy
  * baselines; each of them supplies only its accept rule.
  *
  * It holds one [[RevenueSession]] over a growing allocation, which nodes are
  * assigned, and each advertiser's seed cost, seed list and closed flag.
  * Elements `(u, ad)` sit in a [[DoubleIntHeap]] as `ad*n + u`, keyed by the
  * marginal gain `π_ad(u|S_ad)` or, with `byRate`, the marginal rate
  * `ζ_ad(u|S_ad)`. Keys only go stale downwards (submodularity), so [[run]]
  * pops the top, recomputes its key, and re-pushes it if it fell below the
  * next key; otherwise the element is the true maximum and goes to the
  * accept rule.
  */
final class LazyGreedy(prob: RMProblem, byRate: Boolean) {
  private val n = prob.n
  private val heap = new DoubleIntHeap(n * prob.h)
  private val costS = new Array[Double](prob.h)
  private val seeds = Array.fill(prob.h)(Vector.newBuilder[Int])
  private val closed = new Array[Boolean](prob.h)
  private var nOpen = prob.h

  val sess: RevenueSession = prob.oracle.newSession()

  /** Nodes that endorse an advertiser already (the partition matroid). */
  val assigned = new Array[Boolean](n)

  /** Number of advertisers not yet closed. */
  def open: Int = nOpen

  private def key(u: Int, ad: Int): Double =
    if (byRate) sess.rate(u, ad, prob.costs(ad)(u)) else sess.gain(u, ad)

  /** Push every individually feasible element `(u, ad)`, `u ∈ nodes`, with
    * its key under the current allocation.
    */
  def push(ad: Int, nodes: Iterable[Int]): Unit =
    nodes.foreach(u => if (prob.elementFeasible(ad, u)) heap.push(key(u, ad), ad * n + u))

  /** [[push]] every node for every advertiser, advertiser by advertiser. */
  def pushAll(): Unit = {
    var ad = 0
    while (ad < prob.h) { push(ad, 0 until n); ad += 1 }
  }

  /** Does adding `u` (marginal gain `g`) keep `c_ad(S_ad) + π_ad(S_ad) ≤ B_ad`? */
  def fits(u: Int, ad: Int, g: Double): Boolean =
    costS(ad) + prob.costs(ad)(u) + sess.pi(ad) + g <= prob.budgets(ad) + 1e-9

  /** Commit `u` to `S_ad`. */
  def take(u: Int, ad: Int): Unit = {
    sess.add(u, ad)
    costS(ad) += prob.costs(ad)(u)
    seeds(ad) += u
    assigned(u) = true
  }

  /** Close the open advertiser `ad`. */
  def close(ad: Int): Unit = { closed(ad) = true; nOpen -= 1 }

  /** The pop–refresh–compare–re-push loop. Each element whose fresh key is
    * still the maximum leaves the heap and goes to `accept(u, ad)`; the loop
    * ends when the heap is empty or `accept` returns false. With `dropDead`,
    * a popped element whose node is assigned or whose advertiser is closed
    * is dropped before its key is refreshed.
    */
  def run(dropDead: Boolean)(accept: (Int, Int) => Boolean): Unit = {
    var go = true
    while (go && heap.nonEmpty) {
      val e = heap.topElem
      heap.removeTop()
      val ad = e / n; val u = e % n
      if (!(dropDead && (closed(ad) || assigned(u)))) {
        val k = key(u, ad)
        if (heap.nonEmpty && k < heap.topKey - 1e-12) heap.push(k, e)
        else go = accept(u, ad)
      }
    }
  }

  /** The seed lists, in selection order. */
  def alloc: Alloc = Vector.tabulate(prob.h)(j => seeds(j).result())
}
