package repro.core.mup

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CompressedData
import scala.util.Random

/** The invariant DEEPDIVER's search rests on: in its DFS order every strict
  * generalization of a node is popped before the node, so an uncovered node
  * that no found MUP dominates is a MUP and needs no climb. It then visits
  * exactly PATTERN-BREAKER's nodes and makes exactly its cov calls, at every
  * level limit.
  *
  * The datasets are `MupAlgorithmsSpec`'s random, skewed and
  * high-cardinality ones (same generators, same seeds).
  */
class DeepDiverSpec extends AnyFunSuite {

  private def assertSameWork(cases: Seq[(CompressedData, Long)]): Unit =
    for ((data, tau) <- cases; cap <- (0 to data.dim) :+ Int.MaxValue) {
      val dd = DeepDiver.findMups(data, tau, cap)
      val pb = PatternBreaker.findMups(data, tau, cap)
      val clue = s"cards=${data.cards} n=${data.total} tau=$tau maxLevel=$cap"
      assert(dd.mups == pb.mups, clue)
      assert(dd.nodesVisited == pb.nodesVisited, clue)
      assert(dd.covCalls == pb.covCalls, clue)
    }

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: random datasets") {
    val rnd = new Random(314159L)
    assertSameWork(Vector.fill(40) {
      val d     = 1 + rnd.nextInt(4)
      val cards = Vector.fill(d)(2 + rnd.nextInt(3))
      val n     = rnd.nextInt(80)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 1 + rnd.nextInt(6)
      (CompressedData.fromRows(rows, cards), tau.toLong)
    })
  }

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: skewed datasets") {
    val rnd = new Random(27L)
    assertSameWork(Vector.fill(10) {
      val cards = Vector(2, 3, 2, 2)
      val hot   = Vector.tabulate(4)(i => rnd.nextInt(cards(i)))
      val rows  = Vector.fill(100)(hot) ++
        Vector.fill(10)(Vector.tabulate(4)(i => rnd.nextInt(cards(i))))
      CompressedData.fromRows(rows, cards)
    }.flatMap(data => Seq(1L, 5L, 20L, 100L).map(data -> _)))
  }

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: high-cardinality datasets") {
    val rnd = new Random(1863L)
    assertSameWork(Vector.fill(10) {
      val d     = 2 + rnd.nextInt(2)
      val cards = Vector.fill(d)(2 + rnd.nextInt(5))
      val n     = 10 + rnd.nextInt(120)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 1 + rnd.nextInt(8)
      (CompressedData.fromRows(rows, cards), tau.toLong)
    })
  }
}
