package repro.core.enhance

import repro.core.Pattern

/** Direct implementation of the greedy hitting-set approximation (the
  * "naïve" comparator of paper §V-C4): every round walks all `Π c_i` value
  * combinations, counts for each how many still-unhit patterns it matches,
  * and picks the max. Exponential per round — only for small settings.
  *
  * Ties break as in [[GreedyHitter]]: the first maximum in tree-visit order,
  * a node's children ordered by remaining-hit bound (the unhit patterns the
  * prefix can still hit), descending, then by value. Nothing is pruned.
  */
object NaiveHitter {

  final case class Result(combos: Vector[Vector[Int]], combosScanned: Long)

  def run(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int]): Result = {
    val d      = cards.length
    val elems  = patterns.map(_.elems.toArray).toArray
    val prefix = new Array[Int](d)
    var unhit  = patterns.indices.toArray
    val out    = Vector.newBuilder[Vector[Int]]
    var scanned = 0L

    while (unhit.nonEmpty) {
      var bestCombo: Vector[Int] = null
      var bestHits = 0
      // `live`: the unhit patterns that `prefix(0 until i)` can still hit.
      def visit(i: Int, live: Array[Int]): Unit =
        if (i == d) {
          scanned += 1
          if (live.length > bestHits) { bestHits = live.length; bestCombo = prefix.toVector }
        } else {
          val kids = Array.tabulate(cards(i))(v =>
            live.filter(j => elems(j)(i) == Pattern.X || elems(j)(i) == v))
          for (v <- (0 until cards(i)).sortBy(v => -kids(v).length)) { prefix(i) = v; visit(i + 1, kids(v)) }
        }
      visit(0, unhit)
      require(bestHits > 0, "no combination hits any remaining pattern")
      out += bestCombo
      unhit = unhit.filterNot(j => patterns(j).matches(bestCombo))
    }
    Result(out.result(), scanned)
  }
}
