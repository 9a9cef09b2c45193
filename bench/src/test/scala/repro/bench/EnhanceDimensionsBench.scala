package repro.bench

import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.DeepDiver

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
}
