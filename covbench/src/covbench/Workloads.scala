package covbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.spark.CoverageData

/** Outputs pinned for a workload at its default seed (`K` distinct
  * combinations, MUP count, `|M_λ|`, combinations GREEDY chooses).
  */
final case class Expected(combos: Int, mups: Int, toHit: Int, chosen: Int)

/** One benchmark input: a synthetic dataset from the program's own
  * generators, the threshold rate (τ is taken from the rows actually read)
  * and the enhancement level λ.
  */
final case class Workload(
    name: String,
    defaultSeed: Int,
    cards: IndexedSeq[Int],
    tauRate: Double,
    lambda: Int,
    combinerPerRound: Boolean,
    expected: Expected,
    generate: (SparkSession, Int) => DataFrame,
) {
  def attrs: Seq[String] = CoverageData.attrNames(cards.length)
  def tauOf(total: Long): Long = math.max(1L, (tauRate * total).toLong)
}

object Workloads {
  private val AirbnbSeed = 42
  private val AirbnbN    = 100000L

  val all: Seq[Workload] = Seq(
    // Scan-bound: the Spark groupBy over 4M rows takes most of every job and
    // the bit vectors are wide (1,492 words), so `cov` is AND-kernel bound.
    Workload("bluenile-4m-scan", 7, CoverageData.bluenileCards, 0.01, 2,
      combinerPerRound = true, Expected(95452, 3083, 205, 51),
      (s, seed) => CoverageData.bluenile(s, 4000000L, seed)),
    // Search- and greedy-bound: DeepDiver is most of the assess job and 43K
    // patterns to hit make GreedyHitter most of the remedy job. One
    // PatternCombiner call here visits 4.57M nodes (25-27 s), so it runs once
    // per traced run instead of once per traced round.
    Workload("airbnb-d14-remedy", AirbnbSeed, CoverageData.airbnbCards(14), 0.01, 5,
      combinerPerRound = false, Expected(2682, 5687, 43310, 94),
      airbnbRows(14)),
  )

  /** AirBnB-like rows for `seed`. At the default seed, the generator's own
    * output. At any other seed, a Bernoulli half-sample (seeded by `seed`) of
    * twice as many rows from the generator at the default seed: the
    * generator's seed also redraws every attribute's rate, which changes the
    * workload itself (DeepDiver took 0.8-1.9 s over seeds 1-6 at d = 14),
    * while a resample keeps the distribution and varies only the rows.
    */
  private def airbnbRows(d: Int)(spark: SparkSession, seed: Int): DataFrame =
    if (seed == AirbnbSeed) CoverageData.airbnb(spark, AirbnbN, d, AirbnbSeed)
    else CoverageData.airbnb(spark, 2 * AirbnbN, d, AirbnbSeed).sample(withReplacement = false, 0.5, seed.toLong)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
