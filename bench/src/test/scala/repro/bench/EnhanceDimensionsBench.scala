package repro.bench

import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.DeepDiver
import repro.spark.{CoverageData, SparkCoverage}

/** Paper Fig 18 (GREEDY runtime vs number of attributes, per λ) and Fig 19
  * (input size = uncovered patterns at λ, output size = combinations to
  * collect).
  *
  * Expected shape: input and output sizes, and runtime, grow exponentially
  * with d and by orders of magnitude with λ; output stays well below input
  * because each collected combination hits many patterns.
  */
class EnhanceDimensionsBench extends BenchHarness {

  test("Fig 18+19: AirBnB-like, varying dimensions (tau = 1%, lambda in 3..5)") {
    val dims = Seq(5, 8, 11, 14)
    val rows = for (d <- dims; lambda <- Seq(3, 4, 5) if lambda <= d) yield {
      val data = airbnbData(scaleN, d)
      val cards = data.cards
      val tau = data.tau(0.01)
      val mups = DeepDiver.findMups(data, tau, maxLevel = lambda).mups
      val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      val (res, secs) = timed(GreedyHitter.run(toHit, cards))
      Seq(d.toString, lambda.toString, f2(secs), toHit.size.toString,
          res.combos.size.toString)
    }
    printTable(
      s"Fig18+19 Greedy coverage enhancement vs d (n=$scaleN, tau=1%)",
      Seq("d", "lambda", "seconds", "input(toHit)", "output(combos)"),
      rows)
  }

  // No covbench workload has Π c_i above Pattern.DenseCells (2^20), so only
  // these cells time the groupBy scan and GREEDY's incumbent-0 walk.
  test("AirBnB-like d = 21, 22 at lambda = 3: the groupBy scan and incumbent-0 GREEDY") {
    val lambda = 3
    val rows = for (d <- Seq(21, 22)) yield {
      val df = CoverageData.airbnb(spark, scaleN, d).cache()
      df.count()
      val cards = CoverageData.airbnbCards(d)
      def scan() = SparkCoverage.collectCompressed(df, CoverageData.attrNames(d), cards)
      val data = scan()
      val (_, scanSecs) = timed { val c = scan(); (c.distinctCombos, c.total) }
      val mups = DeepDiver.findMups(data, data.tau(0.01), maxLevel = lambda).mups
      val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      val (res, secs) = timed(GreedyHitter.run(toHit, cards))
      df.unpersist()
      Seq(d.toString, f"$scanSecs%.3f", data.distinctCombos.toString, f"$secs%.3f", toHit.size.toString,
          res.combos.size.toString, res.nodesExplored.toString)
    }
    printTable(
      s"groupBy scan and incumbent-0 GREEDY (n=$scaleN, tau=1%, lambda=$lambda)",
      Seq("d", "scan s", "combos", "greedy s", "patterns", "picks", "nodesExplored"),
      rows)
  }
}
