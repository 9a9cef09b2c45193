package repro.core.mup

import repro.core.{CompressedData, InvertedIndex, MupDominanceIndex, Pattern}
import scala.collection.mutable

/** DEEPDIVER (paper §III-E, Algorithm 3): DFS that dives down the Rule-1 tree
  * until it falls into an uncovered region, climbs through uncovered parents
  * to a maximal uncovered pattern, and uses the discovered MUPs to prune the
  * remaining search both above (nodes dominating a MUP are covered — skip the
  * coverage computation, still expand) and below (nodes dominated by a MUP
  * are uncovered and non-maximal — prune the whole subtree). MUP dominance is
  * checked via the incremental inverted indices of Appendix B
  * ([[MupDominanceIndex]]).
  *
  * With `maxLevel < d` the dive stops expanding at `maxLevel`, returning
  * exactly the MUPs with ℓ(P) <= maxLevel (paper Fig 16).
  */
object DeepDiver extends MupAlgorithm {
  val name = "DeepDiver"

  def findMups(data: CompressedData, tau: Long, maxLevel: Int = Int.MaxValue): MupResult = {
    val index = new InvertedIndex(data)
    val cards = data.cards
    val d     = data.dim
    val cap   = math.min(d, maxLevel)
    val dom   = new MupDominanceIndex(cards)
    val found = mutable.HashSet.empty[Pattern]
    var visited = 0L

    val stack = mutable.Stack[Pattern](Pattern.root(d))
    while (stack.nonEmpty) {
      val p = stack.pop()
      visited += 1
      if (dom.dominatedBySome(p)) {
        // p and its whole Rule-1 subtree are uncovered and dominated: prune.
      } else if (dom.dominatesSome(p)) {
        // Ancestors of MUPs are covered (a MUP's parents are covered and
        // coverage is monotone): expand without computing coverage.
        if (p.level < cap) stack.pushAll(p.childrenRule1(cards))
      } else if (index.covers(p, tau)) {
        if (p.level < cap) stack.pushAll(p.childrenRule1(cards))
      } else {
        // Uncovered: climb through uncovered parents to a maximal one.
        var cur = p
        var climbing = true
        while (climbing) {
          cur.parents.find(q => !index.covers(q, tau)) match {
            case Some(up) => cur = up
            case None     => climbing = false
          }
        }
        if (found.add(cur)) dom.add(cur)
      }
    }
    MupResult(dom.mups.toSet, visited, index.covCalls)
  }
}
