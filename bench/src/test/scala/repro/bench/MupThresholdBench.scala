package repro.bench

/** Paper Fig 12 (AirBnB) and Fig 13 (BlueNile): MUP identification runtime
  * and output size as the coverage threshold rate varies.
  *
  * Expected shape (paper §V-C1): PATTERN-BREAKER gets faster as the
  * threshold grows (MUPs move up the graph), PATTERN-COMBINER gets slower,
  * they cross somewhere in the middle, and DEEPDIVER is competitive
  * everywhere. On BlueNile the high-cardinality bottom level keeps
  * PATTERN-COMBINER behind across the board.
  */
class MupThresholdBench extends BenchHarness {

  test("Fig 12: AirBnB-like, varying threshold rate (d = 13)") {
    val d = 13
    val data = airbnbData(scaleN, d)
    val rates = Seq(0.00001, 0.0001, 0.001, 0.01)
    val rows = for (rate <- rates; algo <- mupAlgos) yield {
      val tau = data.tau(rate)
      val (res, secs) = timed(algo.findMups(data, tau))
      Seq(f"$rate%.5f", tau.toString, algo.name, f2(secs), res.mups.size.toString,
          res.covCalls.toString)
    }
    printTable(
      s"Fig12 AirBnB MUP identification (n=${data.total}, d=$d)",
      Seq("thresholdRate", "tau", "algorithm", "seconds", "mups", "covCalls"),
      rows)
  }

  test("Fig 13: BlueNile-like, varying threshold rate (d = 7, cards 10,4,7,8,3,3,5)") {
    val data = bluenileData(116300L)
    val rates = Seq(0.00001, 0.0001, 0.001, 0.01)
    val rows = for (rate <- rates; algo <- mupAlgos) yield {
      val tau = data.tau(rate)
      val (res, secs) = timed(algo.findMups(data, tau))
      Seq(f"$rate%.5f", tau.toString, algo.name, f2(secs), res.mups.size.toString,
          res.covCalls.toString)
    }
    printTable(
      s"Fig13 BlueNile MUP identification (n=${data.total}, d=7)",
      Seq("thresholdRate", "tau", "algorithm", "seconds", "mups", "covCalls"),
      rows)
  }
}
