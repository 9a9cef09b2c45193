package repro.core.mup

import repro.core.CompressedData
import scala.util.Random

/** The randomized datasets the MUP specs check every search on: one
  * generator per family, each with a fixed seed, so `MupAlgorithmsSpec` and
  * `DeepDiverSpec` see the same rows and thresholds.
  */
object MupDatasets {

  /** One generated dataset: `rows` over `cards`, checked at each of `taus`. */
  final case class Case(cards: Vector[Int], rows: Vector[Vector[Int]], taus: Seq[Long]) {
    lazy val data: CompressedData = CompressedData.fromRows(rows, cards)
  }

  /** 40 datasets with d in 1..4, cardinalities 2..4, n < 80 and τ in 1..6. */
  val random: Vector[Case] = {
    val rnd = new Random(314159L)
    Vector.fill(40) {
      val d     = 1 + rnd.nextInt(4)
      val cards = Vector.fill(d)(2 + rnd.nextInt(3))
      val n     = rnd.nextInt(80)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 1 + rnd.nextInt(6)
      Case(cards, rows, Seq(tau.toLong))
    }
  }

  /** 10 skewed datasets: 100 copies of one hot combo and 10 random rows,
    * each checked at τ ∈ {1, 5, 20, 100}; `hot` is its first row.
    */
  val skewed: Vector[Case] = {
    val rnd = new Random(27L)
    Vector.fill(10) {
      val cards = Vector(2, 3, 2, 2)
      val hot   = Vector.tabulate(4)(i => rnd.nextInt(cards(i)))
      val rows  = Vector.fill(100)(hot) ++
        Vector.fill(10)(Vector.tabulate(4)(i => rnd.nextInt(cards(i))))
      Case(cards, rows, Seq(1L, 5L, 20L, 100L))
    }
  }

  /** 10 BlueNile-like datasets: d in 2..3, cardinalities 2..6, τ in 1..8. */
  val highCardinality: Vector[Case] = {
    val rnd = new Random(1863L)
    Vector.fill(10) {
      val d     = 2 + rnd.nextInt(2)
      val cards = Vector.fill(d)(2 + rnd.nextInt(5))
      val n     = 10 + rnd.nextInt(120)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 1 + rnd.nextInt(8)
      Case(cards, rows, Seq(tau.toLong))
    }
  }
}
