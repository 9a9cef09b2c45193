package repro.core

/** The aggregated form of a dataset used by every search algorithm
  * (paper Appendix A): the distinct value combinations `combos(k)` with the
  * number of dataset tuples having that combination in `counts(k)`. Every
  * cardinality must be at least 1, every code lie in `[0, c_i)` and every
  * count be `>= 0`; the constructor checks all three, so no index ever sees
  * a bad code or an empty attribute domain.
  *
  * This is the only structure the searches touch — the (possibly huge) raw
  * data is reduced to it by one scan/aggregate pass in the Spark layer (see
  * [[repro.spark.SparkCoverage]]).
  */
final class CompressedData(
    val cards:  IndexedSeq[Int],
    val combos: Array[Array[Int]],
    val counts: Array[Long],
) {
  for (i <- cards.indices)
    require(cards(i) >= 1, s"attribute $i has cardinality ${cards(i)}; every cardinality must be at least 1")
  require(combos.length == counts.length,
    s"combos (${combos.length}) and counts (${counts.length}) must align")
  for (k <- combos.indices) {
    val combo = combos(k)
    require(combo.length == cards.length, s"combo arity ${combo.length} != ${cards.length}")
    var i = 0
    while (i < combo.length) {
      require(combo(i) >= 0 && combo(i) < cards(i),
        s"value ${combo(i)} out of range [0, ${cards(i)}) for attribute $i")
      i += 1
    }
    require(counts(k) >= 0, s"negative count ${counts(k)}")
  }

  /** Number of attributes. */
  val dim: Int = cards.length

  /** Total number of tuples in the original dataset. */
  val total: Long = counts.sum

  /** Number of distinct value combinations present. */
  def distinctCombos: Int = combos.length

  /** The coverage threshold for a rate of the rows: max(1, ⌊rate · total⌋). */
  def tau(rate: Double): Long = math.max(1L, (rate * total).toLong)
}

object CompressedData {
  /** Aggregate raw integer-coded rows into (combo, count) pairs. */
  def fromRows(rows: Iterable[IndexedSeq[Int]], cards: IndexedSeq[Int]): CompressedData = {
    val m = scala.collection.mutable.LinkedHashMap.empty[Vector[Int], Long]
    for (r <- rows) {
      val k = r.toVector
      m.update(k, m.getOrElse(k, 0L) + 1L)
    }
    new CompressedData(cards, m.keysIterator.map(_.toArray).toArray, m.valuesIterator.toArray)
  }
}
