package repro.core.mup

import repro.core.{CompressedData, InvertedIndex, MupDominanceIndex, Pattern}
import scala.collection.mutable

/** DEEPDIVER (paper §III-E, Algorithm 3): DFS down the Rule-1 tree that
  * prunes the subtree of any node a found MUP dominates, checked via the
  * incremental inverted indices of Appendix B ([[MupDominanceIndex]]).
  *
  * Note on the pseudocode: Algorithm 3 also climbs from an uncovered node to
  * a MUP and skips cov for nodes dominating a found MUP; neither ever fires
  * here. Siblings are pushed in ascending (attribute, value) order, so every
  * strict generalization Q of a node P pops before P (Q is a Rule-1 ancestor
  * of P, or their paths first differ where Q fixes the higher attribute).
  * Hence no node pops after a MUP it generalizes, and an uncovered P that no
  * found MUP dominates has only covered parents (an uncovered or dominated
  * parent, or the ancestor where the dive stopped above it, would have put a
  * MUP above P): P is a MUP, and a climb would spend ℓ(P) cov calls to
  * confirm it. So DEEPDIVER visits exactly PATTERN-BREAKER's nodes with
  * exactly its cov calls.
  *
  * With `maxLevel < d` the dive stops expanding at `maxLevel`, returning
  * exactly the MUPs with ℓ(P) <= maxLevel (paper Fig 16).
  */
object DeepDiver extends MupAlgorithm {
  val name = "DeepDiver"

  def findMups(data: CompressedData, tau: Long, maxLevel: Int = Int.MaxValue): MupResult = {
    require(tau >= 1, s"τ must be at least 1, got $tau: at τ <= 0 every pattern is covered")
    val index = new InvertedIndex(data)
    val cap   = math.min(data.dim, maxLevel)
    val dom   = new MupDominanceIndex(data.cards)
    var visited = 0L

    val stack = mutable.Stack[Pattern](Pattern.root(data.dim))
    while (stack.nonEmpty) {
      val p = stack.pop()
      visited += 1
      if (dom.dominatedBySome(p)) {
        // p and its whole Rule-1 subtree are uncovered and dominated: prune.
      } else if (index.covers(p, tau)) {
        if (p.level < cap) stack.pushAll(p.childrenRule1(data.cards))
      } else dom.add(p)
    }
    MupResult(dom.mups.toSet, visited, index.covCalls)
  }
}
