package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.OracleGreedy
import repro.rrset.RRCollection

/** Pins the exact allocations (seed lists in selection order) of every
  * lazy-greedy algorithm on a fixed RR collection. Small sets over a skewed
  * node distribution and four cost levels make coverage counts and rates tie
  * often, so the lists depend on push order and tie-breaking as well as on
  * the keys: a change to the shared lazy-greedy loop that alters either
  * fails here.
  */
class AllocationPinSpec extends AnyFunSuite {
  import AllocationPinSpec._

  private val p3 = problem(3)
  private val p1 = problem(1)

  test("pin: Greedy.run over every node, and over the odd nodes") {
    assert(Greedy.run(p3, (0 until N).toVector, 1) == Vector(0, 1, 3, 6))
    assert(Greedy.run(p3, (1 until N by 2).toVector, 2) == GreedyOdd)
  }

  test("pin: ThresholdGreedy.run at γ = 0, γ_max/2 and 1e9") {
    assert(ThresholdGreedy.run(p3, 0.0) == ThresholdGreedy.TGResult(Tg0, 3))
    assert(ThresholdGreedy.run(p3, p3.gammaMax / 2) == ThresholdGreedy.TGResult(TgMid, 2))
    // No element clears γ = 1e9, so the result is Fill from the empty allocation.
    assert(ThresholdGreedy.run(p3, 1e9) == ThresholdGreedy.TGResult(FillEmpty, 0))
  }

  test("pin: Fill from the empty allocation") {
    assert(ThresholdGreedy.fill(p3, Alloc.empty(3)) == FillEmpty)
  }

  test("pin: CA-Greedy and CS-Greedy") {
    assert(OracleGreedy.caGreedy(p3) == Ca)
    assert(OracleGreedy.csGreedy(p3) == Cs)
  }

  test("pin: Search.rmWithOracle for h = 3 and h = 1") {
    assert(Search.rmWithOracle(p3, 0.1).alloc == SearchH3)
    assert(Search.rmWithOracle(p1, 0.1).alloc == Vector(Vector(0)))
  }
}

object AllocationPinSpec {
  val N = 300

  /** 20K RR sets of 1–4 distinct members over N nodes, tags uniform over the
    * h advertisers; node ids are drawn as ⌊N·x³⌋, so low ids are covered
    * often and high ids by a handful of sets each. Costs take four values.
    */
  def problem(h: Int): RMProblem = {
    val rng = new SplittableRandom(2021)
    val coll = new RRCollection(N, Array.tabulate(h)(i => 1.0 + 0.25 * i))
    val buf = new Array[Int](4)
    var s = 0
    while (s < 20000) {
      val len = 1 + rng.nextInt(4)
      var k = 0
      while (k < len) {
      val x = rng.nextDouble()
      val u = (N * x * x * x).toInt
      if (!buf.take(k).contains(u)) { buf(k) = u; k += 1 }
      }
      coll.add(rng.nextInt(h), buf, len)
      s += 1
    }
    val costs = Array.fill(h, N)(0.25 * (1 + rng.nextInt(4)))
    val budgets = Array.tabulate(h)(i => 120.0 + 60.0 * i)
    new RMProblem(coll, budgets, costs)
  }

  val GreedyOdd: IndexedSeq[Int] = Vector(
    1, 3, 13, 15, 5, 9, 67, 7, 79, 25, 63, 83, 21, 71, 99, 125, 93, 35, 89, 143, 165, 17, 19,
    23, 11, 163, 137, 151, 119, 43, 51, 27, 31, 183, 241, 245, 115, 153, 223, 39, 29, 197,
    189, 205, 33, 281, 187, 103, 111, 177, 37, 61, 101, 175, 287, 231, 41, 47, 191, 127, 277,
    123, 57)

  val Tg0: Alloc.Alloc = Vector(
    Vector(2, 4, 5, 7, 9, 11, 14, 17, 18, 20, 133),
    Vector(0, 25, 23, 24, 37, 38, 29, 52, 41, 47, 43, 62, 40, 51, 60, 66, 92),
    Vector(1, 3, 6, 8, 10, 12, 13, 15, 21, 19, 26, 22, 27, 30, 33, 31, 36, 46, 39, 34, 35, 28,
      42, 45, 61, 32, 48, 49, 58, 53, 77, 50, 74, 55, 56, 64, 88, 71, 68, 57, 106, 54, 67, 65,
      99, 83, 114, 90))

  val TgMid: Alloc.Alloc = Vector(
    Vector(38, 44, 41, 51, 70, 53, 62, 57, 59, 54, 81, 126, 121, 68, 101, 145, 85, 80, 113,
      148, 102, 104, 133, 91, 155, 100, 90, 120, 162, 128, 131, 43, 262, 202, 40, 111, 142,
      52, 134, 168, 149, 178, 231, 220, 48, 83),
    Vector(0, 8, 11, 14, 15, 18, 20, 22, 25, 23, 24, 93),
    Vector(1, 2, 3, 4, 5, 6, 10, 7, 9, 12, 13, 19, 21, 17, 16, 27, 26, 37, 33, 30, 31, 39, 36,
      35, 42, 46, 28, 29, 45, 34, 61, 32, 56))

  val FillEmpty: Alloc.Alloc = Vector(
    Vector(11, 4, 7, 19, 31, 28, 38, 35, 12, 42, 45, 41, 18, 44, 70, 59, 57, 62, 54, 51, 53,
      126),
    Vector(1, 3, 2, 6, 10, 5, 25, 9, 37, 52, 17, 39, 102, 23, 16, 14, 75, 65, 116, 76, 27, 92,
      80, 64, 32, 107, 239, 128, 77, 163),
    Vector(0, 8, 13, 15, 22, 30, 34, 36, 74, 26, 82, 86, 56, 20, 93, 134, 83, 114, 71, 99, 67,
      84, 50, 21, 63, 89, 125, 90, 151, 137, 202, 115, 79, 165, 183, 143, 223, 168, 48, 124,
      24, 262, 119, 43, 153, 104, 290, 189, 46, 296, 160, 241, 78, 232, 295))

  val Ca: Alloc.Alloc = Vector(
    Vector(2, 4, 5, 7, 9, 11, 14, 17, 18, 20),
    Vector(0, 25, 23, 24, 37, 38, 29, 41, 52, 47, 43, 62, 40, 51, 60, 66),
    Vector(1, 3, 6, 8, 10, 12, 13, 15, 21, 19, 16, 22, 26, 27, 30, 33, 31, 36, 46, 39, 34, 35,
      28, 42, 45, 32, 61, 48, 49, 58, 53, 77, 50, 56, 55, 74, 64, 88, 71, 68, 44, 67, 57, 106,
      54))

  val Cs: Alloc.Alloc = Vector(
    Vector(11, 4, 7, 19, 31, 28, 38, 35, 12, 42, 45, 41, 18, 44, 70, 62, 54, 57, 59, 51, 53),
    Vector(1, 3, 2, 6, 10, 5, 25, 9, 37, 52, 17, 39, 102, 23, 16, 14, 75, 65, 116, 76, 27, 92,
      80, 64, 32, 107, 128, 239, 61),
    Vector(0, 8, 13, 15, 22, 30, 34, 36, 26, 74, 82, 86, 56, 20, 93, 84, 134, 83, 67, 99, 114,
      71, 50, 63, 21, 89, 125, 90, 151, 163, 137, 202, 115, 165, 183, 79, 223, 143, 48, 168,
      24, 262, 124, 29, 153, 43, 104, 72, 140, 177, 290, 189, 78))

  val SearchH3: Alloc.Alloc = Vector(
    Vector(11, 4, 7, 19, 31, 28, 38, 35, 12, 42, 45, 41, 18, 44, 70, 62, 54, 57, 51, 53, 126,
      81),
    Vector(2, 6, 10, 5, 25, 9, 37, 52, 17, 59, 39, 23, 16, 102, 75, 14, 65, 27, 76, 80, 116,
      92, 64, 32, 77, 107, 128, 61, 276, 239, 33, 287, 177, 142, 163, 278, 137, 258, 224, 97,
      255, 226, 171, 55, 24, 209, 217, 189, 138),
    Vector(0, 1, 3, 8, 13, 15, 22, 30, 34, 74, 36, 86, 82, 26, 134, 67, 99, 20, 71, 56, 93,
      114, 21, 63, 79, 90, 89, 50, 125, 83, 84, 151, 115, 222))
}
