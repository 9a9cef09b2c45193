package repro.core

/** Combinatorics of the pattern graph (paper §III-B, Definition 8), checked
  * against enumeration by `PatternGraphSpec`; the total node count over all
  * levels is [[Pattern.nodeCount]].
  *
  * The counts are exact: for cardinalities >= 1, each throws
  * `ArithmeticException` when its answer exceeds `Long.MaxValue`.
  */
object PatternGraph {

  /** Number of nodes at level ℓ: sum over ℓ-subsets S of attributes of
    * `Π_{i∈S} c_i` (reduces to `C(d,ℓ)·c^ℓ` when all cardinalities equal).
    */
  def nodeCountAtLevel(cards: IndexedSeq[Int], level: Int): Long = {
    // dp(j) = sum of products over j-subsets of the cards seen so far. A j
    // the remaining cards cannot lift to `level` is skipped, so every sum
    // kept is at most the answer and only an answer past Long overflows.
    val d  = cards.length
    val dp = Array.fill(level + 1)(0L)
    dp(0) = 1L
    for (k <- 0 until d; j <- math.min(level, k + 1) to math.max(1, level - (d - 1 - k)) by -1)
      dp(j) = Math.addExact(dp(j), Math.multiplyExact(dp(j - 1), cards(k).toLong))
    dp(level)
  }

  /** Total number of parent-child edges. For uniform cardinality `c` this is
    * the closed form `c · d · (c+1)^(d-1)`; in general each node P at level
    * ℓ has `Σ_{i∈A_P} c_i` children, summed via a product expansion.
    */
  def edgeCount(cards: IndexedSeq[Int]): Long = {
    // Each edge is (parent P', child P) where the child specializes one X of
    // the parent. Equivalently: sum over nodes P of ℓ(P) (each node has ℓ(P)
    // parents). Σ_P ℓ(P) = Σ_i c_i · Π_{j≠i}(c_j+1).
    val d = cards.length
    var sum = 0L
    for (i <- 0 until d) {
      var prod = 1L
      for (j <- 0 until d if j != i) prod = Math.multiplyExact(prod, cards(j) + 1L)
      sum = Math.addExact(sum, Math.multiplyExact(prod, cards(i).toLong))
    }
    sum
  }

  /** Enumerate every pattern at the given level. Intended for small graphs. */
  def patternsAtLevel(cards: IndexedSeq[Int], level: Int): Iterator[Pattern] =
    Pattern.allPatterns(cards).filter(_.level == level)
}
