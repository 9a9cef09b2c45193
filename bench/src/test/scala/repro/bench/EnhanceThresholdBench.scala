package repro.bench

import repro.core.enhance.{GreedyHitter, LevelExpansion, NaiveHitter}
import repro.core.mup.DeepDiver

/** Paper Fig 17: coverage-enhancement runtime as the threshold rate varies,
  * for several maximum-covered-level targets λ, GREEDY vs the direct (naïve)
  * greedy hitting-set.
  *
  * Expected shape: GREEDY finishes in seconds everywhere and its runtime
  * grows with both λ (more patterns to hit) and the threshold rate (MUPs move
  * up the graph → more uncovered patterns at level λ); the naïve greedy only
  * finishes on the smallest setting.
  */
class EnhanceThresholdBench extends BenchHarness {

  test("Fig 17: AirBnB-like, varying threshold (d = 13, lambda in 3..5)") {
    val d = 13
    val data = airbnbData(scaleN, d)
    val cards = data.cards
    val rates = Seq(0.000001, 0.00001, 0.0001, 0.001, 0.01)
    val rows = for (rate <- rates; lambda <- Seq(3, 4, 5)) yield {
      val tau = data.tau(rate)
      val mups = DeepDiver.findMups(data, tau, maxLevel = lambda).mups
      val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      val (res, secs) = timed(GreedyHitter.run(toHit, cards))
      Seq(f"$rate%.6f", tau.toString, lambda.toString, f2(secs),
          toHit.size.toString, res.combos.size.toString)
    }
    printTable(
      s"Fig17 Greedy coverage enhancement vs threshold (n=${data.total}, d=$d)",
      Seq("thresholdRate", "tau", "lambda", "seconds", "input(toHit)", "output(combos)"),
      rows)
  }

  test("Fig 17 (naive tick): direct greedy only viable on a small setting") {
    // The naive comparator scans Π c_i combos per round; like the paper's
    // single finished naive point, run it on the smallest *non-degenerate*
    // cell of the sweep (first (rate, λ) with a modest pattern count).
    val d = 13
    val data = airbnbData(scaleN, d)
    val cards = data.cards
    val cell = (for {
      rate <- Seq(0.0001, 0.001, 0.01).iterator
      lambda <- Seq(3, 4).iterator
      tau = data.tau(rate)
      mups = DeepDiver.findMups(data, tau, maxLevel = lambda).mups
      toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      if toHit.size >= 10 && toHit.size <= 3000
    } yield (tau, lambda, toHit)).nextOption()
    assert(cell.nonEmpty, "no non-degenerate cell for the naive comparison")
    val (tau, lambda, toHit) = cell.get
    val (fast, fastSecs)  = timed(GreedyHitter.run(toHit, cards))
    val (naive, naiveSecs) = timed(NaiveHitter.run(toHit, cards))
    assert(fast.combos == naive.combos)
    printTable(
      s"Fig17 naive-vs-greedy single cell (n=${data.total}, d=$d, tau=$tau, lambda=$lambda)",
      Seq("method", "seconds", "input(toHit)", "output(combos)", "work"),
      Seq(
        Seq("GREEDY", f2(fastSecs), toHit.size.toString, fast.combos.size.toString,
            s"${fast.nodesExplored} tree nodes"),
        Seq("naive", f2(naiveSecs), toHit.size.toString, naive.combos.size.toString,
            s"${naive.combosScanned} combos scanned"),
      ))
  }
}
