package repro.core.enhance

import repro.core.Pattern

/** Appendix C: the set `M_λ` of patterns the hitting set must cover.
  *
  * Covering only the MUPs with level <= λ is not enough (a MUP's uncovered
  * children at level λ can stay uncovered); covering *every* uncovered
  * pattern at exactly level λ is both necessary and sufficient for the
  * maximum covered level to reach λ. That set is the union, over MUPs P with
  * ℓ(P) <= λ, of P's descendants at level λ (specialize λ − ℓ(P) of P's X
  * elements to every value).
  */
object LevelExpansion {

  /** All level-λ descendants of `p` ("subset patterns" in the paper). */
  def descendantsAtLevel(p: Pattern, cards: IndexedSeq[Int], lambda: Int): Iterator[Pattern] = {
    require(lambda >= p.level, s"lambda $lambda below pattern level ${p.level}")
    val xIdx = (0 until p.dim).filter(i => !p.isDet(i))
    val need = lambda - p.level
    xIdx.combinations(need).flatMap { pick =>
      // assign every value combination to the picked X positions
      def assign(rem: List[Int], cur: Vector[Int]): Iterator[Vector[Int]] = rem match {
        case Nil => Iterator.single(cur)
        case i :: tl =>
          (0 until cards(i)).iterator.flatMap(v => assign(tl, cur.updated(i, v)))
      }
      assign(pick.toList, p.elems).map(Pattern(_))
    }
  }

  /** `M_λ`: every uncovered pattern at level λ, derived from the MUP set.
    * MUPs with level > λ are irrelevant (they constrain deeper levels only);
    * a level-λ pattern is uncovered iff some MUP with level <= λ generalizes
    * it, so expanding those MUPs and de-duplicating is exact.
    */
  def uncoveredAtLevel(mups: Iterable[Pattern], cards: IndexedSeq[Int], lambda: Int): Set[Pattern] = {
    val out = Set.newBuilder[Pattern]
    for (p <- mups if p.level <= lambda; q <- descendantsAtLevel(p, cards, lambda))
      out += q
    out.result()
  }
}
