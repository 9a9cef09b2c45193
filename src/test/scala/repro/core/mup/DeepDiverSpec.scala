package repro.core.mup

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CompressedData

/** The invariant DEEPDIVER's search rests on: in its DFS order every strict
  * generalization of a node is popped before the node, so an uncovered node
  * that no found MUP dominates is a MUP and needs no climb. It then visits
  * exactly PATTERN-BREAKER's nodes and makes exactly its cov calls, at every
  * level limit.
  *
  * The datasets are [[MupDatasets]]' random, skewed and high-cardinality
  * families, the ones `MupAlgorithmsSpec` checks against brute force.
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

  private def cases(family: Seq[MupDatasets.Case]): Seq[(CompressedData, Long)] =
    family.flatMap(c => c.taus.map(c.data -> _))

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: random datasets") {
    assertSameWork(cases(MupDatasets.random))
  }

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: skewed datasets") {
    assertSameWork(cases(MupDatasets.skewed))
  }

  test("DeepDiver visits PatternBreaker's nodes with its cov calls: high-cardinality datasets") {
    assertSameWork(cases(MupDatasets.highCardinality))
  }
}
