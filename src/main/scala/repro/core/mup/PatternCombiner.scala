package repro.core.mup

import repro.core.{CompressedData, Pattern}
import scala.collection.mutable

/** PATTERN-COMBINER (paper §III-D, Algorithm 2): bottom-up traversal.
  *
  * Level `d` holds every fully-specified value combination; one pass over the
  * aggregated data gives their counts, and the uncovered ones seed the climb.
  * Moving up, an uncovered node at level ℓ proposes parents at level ℓ-1 via
  * Rule 2; a parent's coverage is the sum of the coverages of the child block
  * that partitions it on its right-most `X` attribute (children absent from
  * the uncovered map are covered, so τ is used as a ≥-τ stand-in, which can
  * only push the sum over the threshold — exactly the monotone test needed).
  * An uncovered node none of whose parents is uncovered is a MUP.
  *
  * The uncovered map at each level is complete (every uncovered pattern of
  * that level is present): a node's designated Rule-2 generator — right-most
  * X replaced by value 0 — is one of its children and children of uncovered
  * nodes are uncovered, so induction from the exhaustive level-d base holds.
  *
  * `maxLevel` is accepted for interface parity but cannot speed this
  * algorithm up: the climb must start from level `d` regardless, so it only
  * filters the reported MUPs.
  */
object PatternCombiner extends MupAlgorithm {
  val name = "PatternCombiner"

  /** The most value combinations the level-`d` enumeration visits; a larger
    * domain is refused before it starts. A memory cap on the level-`d` map,
    * which holds every uncovered combination.
    */
  private val MaxCombos = 1L << 22

  def findMups(data: CompressedData, tau: Long, maxLevel: Int = Int.MaxValue): MupResult = {
    require(tau >= 1, s"τ must be at least 1, got $tau: at τ <= 0 every pattern is covered")
    val cards = data.cards
    val d     = data.dim
    require(Pattern.combosWithin(cards, MaxCombos),
      s"PatternCombiner enumerates all Π c_i = ${cards.map(BigInt(_)).product} value combinations of " +
        s"cards ${cards.mkString("[", ",", "]")}, more than its cap of $MaxCombos")
    var visited = 0L // one cov computation per visited node

    // Level-d base: counts of present combos; every absent combo has count 0.
    val present = mutable.HashMap.empty[Pattern, Long]
    var k = 0
    while (k < data.combos.length) {
      present(Pattern(data.combos(k).toVector)) = data.counts(k)
      k += 1
    }
    var level   = d
    var current = mutable.HashMap.empty[Pattern, Long] // uncovered at `level`
    Pattern.allCombos(cards).foreach { combo =>
      visited += 1
      val p   = Pattern(combo)
      val cnt = present.getOrElse(p, 0L)
      if (cnt < tau) current(p) = cnt
    }

    val mups = mutable.Set.empty[Pattern]
    while (level >= 0 && current.nonEmpty) {
      val parentLevel = mutable.HashMap.empty[Pattern, Long]
      if (level > 0) {
        for ((p, _) <- current; parent <- p.parentsRule2 if !parentLevel.contains(parent)) {
          visited += 1
          // Children of `parent` that partition it on its right-most X.
          val i = parent.rightmostX
          var sum = 0L
          var v = 0
          while (v < cards(i) && sum < tau) {
            sum += current.getOrElse(Pattern(parent.elems.updated(i, v)), tau)
            v += 1
          }
          if (sum < tau) parentLevel(parent) = sum
        }
      }
      // An uncovered node with no uncovered parent is a MUP.
      for ((p, _) <- current if p.level <= maxLevel) {
        if (p.parents.forall(q => !parentLevel.contains(q))) mups += p
      }
      current = parentLevel
      level -= 1
    }
    MupResult(mups.toSet, visited, visited)
  }
}
