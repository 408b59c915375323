package repro.rrset

import repro.core.{RevenueOracle, RevenueSession}

/** A collection of tagged Reverse-Reachable sets with flat int-array storage,
  * per-(advertiser, node) inverted index, and incremental coverage sessions.
  *
  * Each RR set carries the advertiser it was generated for (paper §4.2
  * *uniform sampling*: the tag is drawn with probability `cpe(i)/Γ`). The
  * unbiased estimators are
  *
  *   π̃(S⃗, R)   = nΓ · |{R : tag(R)=j ∧ S_j ∩ R ≠ ∅}| / |R|      (Lemma 4.1)
  *   π̃_i(S, R)  = nΓ · |{R : tag(R)=i ∧ S ∩ R ≠ ∅}| / |R|
  *
  * The collection is growable (RMA doubles it) and the index is rebuilt after
  * appends. With `h = 1` the same class serves as a per-advertiser collection
  * for the TIM-based baselines.
  */
final class RRCollection(val n: Int, val cpeArr: Array[Double]) extends RevenueOracle {

  val h: Int = cpeArr.length
  require(h <= Byte.MaxValue, s"RR tags are bytes: at most ${Byte.MaxValue} advertisers, got $h")
  def cpe(i: Int): Double = cpeArr(i)

  /** Γ = Σ_i cpe(i). */
  val gamma: Double = cpeArr.sum

  // ---- flat storage -------------------------------------------------------
  private var tags: Array[Byte] = new Array[Byte](1024)
  private var starts: Array[Int] = new Array[Int](1025) // starts(numSets) = totalNodes
  private var members: Array[Int] = new Array[Int](4096)
  private var _numSets: Int = 0
  private var _totalNodes: Int = 0

  def numSets: Int = _numSets
  def totalNodes: Long = _totalNodes.toLong

  /** Revenue contribution of one covered set: `nΓ/|R|`. */
  def scalePerSet: Double = n.toDouble * gamma / _numSets

  /** Append one RR set. Invalidates the index until [[rebuildIndex]]. */
  def add(tag: Int, nodes: Array[Int], len: Int): Unit = {
    if (_numSets + 1 >= tags.length) {
      val cap = tags.length * 2
      tags = java.util.Arrays.copyOf(tags, cap)
      starts = java.util.Arrays.copyOf(starts, cap + 1)
    }
    if (_totalNodes + len > members.length) {
      var cap = members.length
      while (cap < _totalNodes + len) cap *= 2
      members = java.util.Arrays.copyOf(members, cap)
    }
    System.arraycopy(nodes, 0, members, _totalNodes, len)
    tags(_numSets) = tag.toByte
    _numSets += 1
    _totalNodes += len
    starts(_numSets) = _totalNodes
    indexValid = false
  }

  /** Append a packed batch: per-set tags and sizes plus concatenated members. */
  def addPacked(batchTags: Array[Byte], sizes: Array[Int], nodes: Array[Int]): Unit = {
    var off = 0
    var s = 0
    while (s < batchTags.length) {
      add(batchTags(s), java.util.Arrays.copyOfRange(nodes, off, off + sizes(s)), sizes(s))
      off += sizes(s)
      s += 1
    }
  }

  def tagOf(sid: Int): Int = tags(sid)
  def setStart(sid: Int): Int = starts(sid)
  def setEnd(sid: Int): Int = starts(sid + 1)
  def memberAt(pos: Int): Int = members(pos)
  def setMembers(sid: Int): Array[Int] =
    java.util.Arrays.copyOfRange(members, starts(sid), starts(sid + 1))

  // ---- inverted index -----------------------------------------------------
  // For element (u, i): the tag-i sets containing u are
  //   idxSets(idxHead(i*n+u) until idxHead(i*n+u+1))  — heads are global.
  private var idxHead: Array[Int] = _
  private var idxSets: Array[Int] = _
  private var indexValid = false

  /** Rebuild the inverted index after appends. O(total incidences). */
  def rebuildIndex(): Unit = {
    val heads = new Array[Int](h * n + 1)
    var sid = 0
    while (sid < _numSets) {
      val i = tags(sid)
      var p = starts(sid)
      val end = starts(sid + 1)
      while (p < end) { heads(i * n + members(p) + 1) += 1; p += 1 }
      sid += 1
    }
    var k = 0
    while (k < h * n) { heads(k + 1) += heads(k); k += 1 }
    val sets = new Array[Int](_totalNodes)
    val pos = java.util.Arrays.copyOf(heads, h * n)
    sid = 0
    while (sid < _numSets) {
      val i = tags(sid)
      var p = starts(sid)
      val end = starts(sid + 1)
      while (p < end) {
        val key = i * n + members(p)
        sets(pos(key)) = sid
        pos(key) += 1
        p += 1
      }
      sid += 1
    }
    idxHead = heads
    idxSets = sets
    stamps = new Array[Int](_numSets)
    stampCur = 0
    indexValid = true
  }

  private def ensureIndex(): Unit = if (!indexValid) rebuildIndex()

  /** Number of tag-i sets containing node u (singleton coverage count). */
  def singletonCount(u: Int, i: Int): Int = {
    ensureIndex()
    idxHead(i * n + u + 1) - idxHead(i * n + u)
  }

  /** Estimated singleton spread `σ̂_i({u}) = n·cnt/E[#tag-i sets]`. */
  def sigmaSingleton(u: Int, i: Int): Double = {
    ensureIndex()
    scalePerSet * singletonCount(u, i) / cpeArr(i)
  }

  // reusable stamp buffer for from-scratch evaluations (driver-side only)
  private var stamps: Array[Int] = new Array[Int](0)
  private var stampCur: Int = 0

  /** `π̃_i(X, R)` evaluated from scratch (distinct covered tag-i sets). */
  def piOf(i: Int, xs: Iterable[Int]): Double = {
    ensureIndex()
    stampCur += 1
    var covered = 0
    for (u <- xs) {
      var p = idxHead(i * n + u)
      val end = idxHead(i * n + u + 1)
      while (p < end) {
        val sid = idxSets(p)
        if (stamps(sid) != stampCur) { stamps(sid) = stampCur; covered += 1 }
        p += 1
      }
    }
    covered * scalePerSet
  }

  def newSession(): RevenueSession = { ensureIndex(); new CoverageSession(this) }

  /** Incremental coverage session: `gain(u,i)` is an O(1) lookup of the
    * current count of *uncovered* tag-i sets containing u; `add` marks the
    * sets covered and decrements member counts (total work across a session
    * is bounded by the collection's incidence count).
    */
  private final class CoverageSession(rr: RRCollection) extends RevenueSession {
    private val covered = new Array[Boolean](rr._numSets)
    private val cnt: Array[Int] = {
      val c = new Array[Int](rr.h * rr.n)
      var k = 0
      while (k < rr.h * rr.n) { c(k) = rr.idxHead(k + 1) - rr.idxHead(k); k += 1 }
      c
    }
    private val coveredPerAd = new Array[Int](rr.h)

    def gain(u: Int, i: Int): Double = cnt(i * rr.n + u) * rr.scalePerSet

    def add(u: Int, i: Int): Unit = {
      var p = rr.idxHead(i * rr.n + u)
      val end = rr.idxHead(i * rr.n + u + 1)
      while (p < end) {
        val sid = rr.idxSets(p)
        if (!covered(sid)) {
          covered(sid) = true
          coveredPerAd(i) += 1
          var q = rr.starts(sid)
          val e2 = rr.starts(sid + 1)
          while (q < e2) { cnt(i * rr.n + rr.members(q)) -= 1; q += 1 }
        }
        p += 1
      }
    }

    def pi(i: Int): Double = coveredPerAd(i) * rr.scalePerSet
  }
}
