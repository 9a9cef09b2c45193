package repro.bench

import repro.core.mup.DeepDiver

/** Paper Fig 15 (full MUP search vs number of attributes) and Fig 16
  * (level-limited DEEPDIVER scaling to many attributes).
  *
  * Expected shape: the pattern graph — and with it runtime and MUP count —
  * grows exponentially in d for the full search, while the level-limited
  * search stays in seconds even at d = 35 because the candidate space at
  * level <= L is only Σ C(d,l)·2^l.
  */
class MupDimensionsBench extends BenchHarness {

  test("Fig 15: AirBnB-like, varying dimensions (tau = 0.1%)") {
    // paper sweeps 5..17; 13 is our full-search box (PATTERN-COMBINER's
    // bottom-up frontier is O(3^d) patterns at this threshold).
    val dims = Seq(5, 7, 9, 11, 13)
    val rows = for (d <- dims; algo <- mupAlgos) yield {
      val data = airbnbData(scaleN, d)
      val tau  = data.tau(0.001)
      val (res, secs) = timed(algo.findMups(data, tau))
      Seq(d.toString, algo.name, f2(secs), res.mups.size.toString)
    }
    printTable(
      s"Fig15 AirBnB MUP identification vs d (n=$scaleN, tau=0.1%)",
      Seq("d", "algorithm", "seconds", "mups"),
      rows)
  }

  test("Fig 16: level-limited DeepDiver, up to 35 attributes (tau = 0.1%)") {
    val dims = Seq(5, 10, 15, 20, 25, 30, 35)
    val rows = for (d <- dims; cap <- Seq(2, 3)) yield {
      val data = airbnbData(scaleN, d)
      val tau  = data.tau(0.001)
      val (res, secs) = timed(DeepDiver.findMups(data, tau, maxLevel = cap))
      Seq(d.toString, cap.toString, f2(secs), res.mups.size.toString)
    }
    printTable(
      s"Fig16 level-limited DeepDiver vs d (n=$scaleN, tau=0.1%)",
      Seq("d", "maxLevel", "seconds", "mups"),
      rows)
  }
}
