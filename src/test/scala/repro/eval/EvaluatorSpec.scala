package repro.eval

import repro.{Oracle, SparkSpec}
import repro.core.Alloc.Alloc
import repro.rrset.RRCollection
import org.apache.spark.sql.functions._

class EvaluatorSpec extends SparkSpec {

  private def mkColl(): RRCollection = {
    val c = new RRCollection(5, Array(1.0, 2.0))
    c.add(0, Array(0, 1), 2)
    c.add(0, Array(2), 1)
    c.add(1, Array(1, 3), 2)
    c.add(1, Array(4), 1)
    c.rebuildIndex()
    c
  }

  private val costs = Array(
    Array(1.0, 2.0, 3.0, 4.0, 5.0),
    Array(0.5, 1.5, 2.5, 3.5, 4.5))
  private val budgets = Array(10.0, 12.0)

  test("revenue matches manual coverage computation") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0), Vector(3))
    // scale = n·Γ/|R| = 5·3/4; ad0 covers set0; ad1 covers set2
    assert(math.abs(ev.revenue(a) - 2 * (5.0 * 3 / 4)) < 1e-9)
  }

  test("revenuePerAd splits correctly") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0, 2), Vector(4))
    val per = ev.revenuePerAd(a)
    assert(math.abs(per.sum - ev.revenue(a)) < 1e-9)
    assert(per(0) == 2 * c.scalePerSet && per(1) == c.scalePerSet)
  }

  test("seedCost sums the cost table") {
    val ev = new Evaluator(mkColl(), costs, budgets)
    val a: Alloc = Vector(Vector(0, 1), Vector(2))
    assert(ev.seedCost(a) == 1.0 + 2.0 + 2.5)
  }

  test("budgetUsage and rateOfReturn formulas") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0), Vector.empty)
    val rev = ev.revenue(a); val cost = ev.seedCost(a)
    assert(math.abs(ev.budgetUsage(a) - (rev + cost) / 22.0) < 1e-12)
    assert(math.abs(ev.rateOfReturn(a) - rev / (rev + cost)) < 1e-12)
  }

  test("rateOfReturn of an empty allocation is zero") {
    val ev = new Evaluator(mkColl(), costs, budgets)
    assert(ev.rateOfReturn(Vector(Vector.empty, Vector.empty)) == 0.0)
  }

  test("allocDf accounting agrees with DuckDB: per-ad totals") {
    val ev = new Evaluator(mkColl(), costs, budgets)
    val a: Alloc = Vector(Vector(0, 1), Vector(2, 3))
    val df = ev.allocDf(spark, a)
    val perAd = df.groupBy("ad").agg(
      count(lit(1)).as("seeds"),
      round(sum(col("cost")), 6).as("totalcost"))
    Oracle.assertEquivalent(perAd,
      "SELECT ad, count(*) AS seeds, round(sum(CAST(cost AS DOUBLE)), 6) AS totalcost " +
        "FROM alloc GROUP BY ad",
      "alloc" -> df)
  }

  test("allocDf join with a budget table agrees with DuckDB") {
    import spark.implicits._
    val ev = new Evaluator(mkColl(), costs, budgets)
    val a: Alloc = Vector(Vector(0, 4), Vector(1))
    val df = ev.allocDf(spark, a)
    val bdf = budgets.zipWithIndex.map { case (b, i) => (i, b) }.toSeq.toDF("ad", "budget")
    val joined = df.groupBy("ad").agg(round(sum(col("cost")), 6).as("spent"))
      .join(bdf, "ad")
      .select(col("ad"), col("spent"), round(col("budget") - col("spent"), 6).as("remaining"))
    Oracle.assertEquivalent(joined,
      """SELECT a.ad, round(sum(CAST(a.cost AS DOUBLE)), 6) AS spent,
        |       round(any_value(CAST(b.budget AS DOUBLE)) - sum(CAST(a.cost AS DOUBLE)), 6) AS remaining
        |FROM alloc a JOIN budgets b ON a.ad = b.ad GROUP BY a.ad""".stripMargin,
      "alloc" -> df, "budgets" -> bdf)
  }
}
