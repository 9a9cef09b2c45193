package repro.core.enhance

import repro.core.Pattern

/** Appendix C: the set `M_λ` of patterns the hitting set must cover.
  *
  * Covering only the MUPs with level <= λ is not enough (a MUP's uncovered
  * children at level λ can stay uncovered); covering *every* uncovered
  * pattern at exactly level λ is both necessary and sufficient for the
  * maximum covered level to reach λ. A level-λ pattern is uncovered iff some
  * MUP P with ℓ(P) <= λ generalizes it, so `M_λ` is the union of those MUPs'
  * level-λ descendants ("subset patterns" in the paper): λ − ℓ(P) of P's X
  * elements, chosen left to right, each set to every value of its attribute.
  */
object LevelExpansion {

  /** `M_λ`: every uncovered pattern at level λ, derived from the MUP set. */
  def uncoveredAtLevel(mups: Iterable[Pattern], cards: IndexedSeq[Int], lambda: Int): Set[Pattern] = {
    val out = Set.newBuilder[Pattern]
    def fill(e: Array[Int], from: Int, need: Int): Unit =
      if (need == 0) out += Pattern(e.toVector)
      else for (i <- from until e.length if e(i) == Pattern.X) {
        for (v <- 0 until cards(i)) { e(i) = v; fill(e, i + 1, need - 1) }
        e(i) = Pattern.X
      }
    for (p <- mups if p.level <= lambda) fill(p.elems.toArray, 0, lambda - p.level)
    out.result()
  }
}
