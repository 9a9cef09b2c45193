package repro.core.mup

import repro.core.{CompressedData, InvertedIndex, Pattern}
import scala.collection.mutable

/** PATTERN-BREAKER (paper §III-C, Algorithm 1): top-down BFS over the pattern
  * graph, transformed into a tree by Rule 1 so every node is generated exactly
  * once. A candidate whose parents are not all known-covered is discarded
  * without a coverage computation (it is uncovered by monotonicity and
  * dominated by an uncovered ancestor, hence not maximal); otherwise its
  * coverage decides MUP (cov < τ) vs covered (expand children via Rule 1).
  *
  * Note on the pseudocode: Algorithm 1 as printed keeps *all* candidates of
  * the previous level in `Q_p` and flags a candidate only when a parent is
  * absent from `Q_p` or is a MUP. That lets a pattern whose nearest uncovered
  * ancestor is two or more levels up slip through as a false "MUP" (e.g. a
  * level-3 node under a level-1 MUP whose level-2 parents were flag-skipped
  * candidates). The intended invariant — a MUP's parents are all covered
  * (Definition 5) — is restored by letting `Q_p` hold exactly the *covered*
  * nodes of the previous level, which is what this implementation does.
  */
object PatternBreaker extends MupAlgorithm {
  val name = "PatternBreaker"

  def findMups(data: CompressedData, tau: Long, maxLevel: Int = Int.MaxValue): MupResult = {
    require(tau >= 1, s"τ must be at least 1, got $tau: at τ <= 0 every pattern is covered")
    val index  = new InvertedIndex(data)
    val cards  = data.cards
    val d      = data.dim
    val mups   = mutable.Set.empty[Pattern]
    var visited = 0L

    var frontier: Vector[Pattern] = Vector(Pattern.root(d)) // candidates at current level
    var coveredPrev: collection.Set[Pattern] = Set.empty    // covered nodes one level up

    var level = 0
    while (frontier.nonEmpty && level <= math.min(d, maxLevel)) {
      val coveredHere = mutable.Set.empty[Pattern]
      for (p <- frontier) {
        visited += 1
        // A MUP's parents must all be covered; any parent missing from the
        // covered set means an uncovered ancestor dominates p — prune.
        if (p.parents.forall(coveredPrev.contains)) {
          if (!index.covers(p, tau)) mups += p
          else coveredHere += p
        }
      }
      val next = Vector.newBuilder[Pattern]
      if (level < math.min(d, maxLevel)) {
        for (p <- coveredHere) next ++= p.childrenRule1(cards)
      }
      coveredPrev = coveredHere
      frontier = next.result()
      level += 1
    }
    MupResult(mups.toSet, visited, index.covCalls)
  }
}
