package repro.bench

/** Paper Fig 14: MUP identification runtime vs dataset size (τ = 1%).
  *
  * Expected shape: running time only mildly impacted by n — the work is
  * driven by the pattern space, and the inverted indices bound the per-cov
  * cost by the number of *distinct* combos, which saturates at Π c_i.
  */
class MupDataSizeBench extends BenchHarness {

  test("Fig 14: AirBnB-like, varying data size (d = 13, tau = 1%)") {
    val d = 13
    val sizes = Seq(scaleN / 10, scaleN / 3, scaleN, scaleN * 3)
    val rows = for (n <- sizes; algo <- mupAlgos) yield {
      val data = airbnbData(n, d)
      val tau  = data.tau(0.01)
      val (res, secs) = timed(algo.findMups(data, tau))
      Seq(n.toString, data.distinctCombos.toString, algo.name, f2(secs),
          res.mups.size.toString)
    }
    printTable(
      s"Fig14 AirBnB MUP identification vs n (d=$d, tau=1%)",
      Seq("n", "distinctCombos", "algorithm", "seconds", "mups"),
      rows)
  }
}
