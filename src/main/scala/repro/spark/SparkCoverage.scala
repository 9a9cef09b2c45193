package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ByteType, DataType, IntegerType, LongType, ShortType}
import repro.core.{CompressedData, Pattern}

/** The Spark scan layer.
  *
  * The paper's searches never touch raw tuples: Appendix A first aggregates
  * identical value combinations into (combo, count) pairs. Over a large
  * dataset that is the single full scan. The result is bounded by
  * `min(n, Π c_i)` pairs and is collected to the driver, where every search
  * and the enhancement run in memory on [[CompressedData]].
  */
object SparkCoverage {

  /** The one scan: the (combo, count) pairs of `df` as [[CompressedData]].
    * Attribute columns must be byte, short, int or long, and their values
    * non-NULL codes in `[0, c_i)`; another column type, a NULL or an
    * out-of-range code fails with an `IllegalArgumentException` naming it.
    *
    * While `Π c_i` fits `Pattern.DenseCells`, the scan is one pass without a
    * shuffle: each row becomes its combination's cell `Σ v_i · stride_i`
    * (see `Pattern.comboStrides`), or −1 when a code is NULL or out of range,
    * each partition counts its cells in one dense array and returns the
    * non-zero ones, and the driver sums them. The check runs in the same
    * pass, because an out-of-range code would alias onto another cell (code
    * 2 with `c = 2` reads as the next digit); a −1 cell makes the driver
    * fetch one offending row and name its column. Combinations come out in
    * lexicographic order. Above the budget, and when `Π c_i` overflows a
    * `Long`, the scan is one `groupBy` over the attribute columns, collected.
    *
    * The Spark job carries a description naming the path taken.
    */
  def collectCompressed(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData =
    collectCompressed(df, attrs, cards, Pattern.DenseCells)

  /** [[collectCompressed]] with the dense path taken only while `Π c_i <= denseCells`. */
  private[repro] def collectCompressed(
      df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int], denseCells: Long): CompressedData = {
    require(attrs.length == cards.length, s"${attrs.length} attributes but ${cards.length} cardinalities")
    for (i <- cards.indices)
      require(cards(i) >= 1, s"attribute column ${attrs(i)} has cardinality ${cards(i)}; it must be at least 1")
    for (f <- df.select(attrs.map(col): _*).schema)
      require(codeTypes(f.dataType),
        s"attribute column ${f.name} has type ${f.dataType.simpleString}; codes must be byte, short, int or long")
    val dense = Pattern.combosWithin(cards, denseCells)
    val sc    = df.sparkSession.sparkContext
    val outer = sc.getLocalProperty(JobDescription)
    sc.setJobDescription(
      if (dense) s"L1 scan: dense counts over Π c_i = ${cards.map(_.toLong).product} cells"
      else "L1 scan: groupBy (Π c_i over budget)")
    try if (dense) denseScan(df, attrs, cards) else groupByScan(df, attrs, cards)
    finally sc.setJobDescription(outer)
  }

  private val JobDescription = "spark.job.description"

  private val codeTypes = Set[DataType](ByteType, ShortType, IntegerType, LongType)

  /** The dense path: one pass, one `Array[Long](Π c_i)` per partition. */
  private def denseScan(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData = {
    val strides = Pattern.comboStrides(cards)
    val cells   = strides(0)
    val valid   = attrs.indices.map { i =>
      val c = col(attrs(i))
      c.isNotNull && c >= 0 && c < cards(i)
    }.reduceOption(_ && _).getOrElse(lit(true))
    val cell    = attrs.indices.map(i => col(attrs(i)).cast(LongType) * strides(i + 1))
      .reduceOption(_ + _).getOrElse(lit(0L))
    val keys    = df.select(when(valid, cell).otherwise(-1L)).queryExecution.toRdd

    // A partition's non-zero cells, or null if it holds a −1.
    val countCells: Iterator[InternalRow] => Cells = { rows =>
      val counts = new Array[Long](cells)
      var k      = 0L
      while (k >= 0 && rows.hasNext) {
        k = rows.next().getLong(0)
        if (k >= 0) counts(k.toInt) += 1
      }
      if (k < 0) null else Cells.nonZero(counts)
    }
    val total = new Array[Long](cells)
    var bad   = false
    keys.sparkContext.runJob(keys, countCells, (_: Int, part: Cells) =>
      if (part == null) bad = true else part.addTo(total))
    if (bad) {
      df.where(!valid).select(attrs.map(col): _*).head(1).foreach(checkCodes(_, attrs, cards))
      throw new IllegalStateException("the L1 scan found an invalid code that a second read did not")
    }

    val found  = Cells.nonZero(total)
    val combos = found.at.map(k => Array.tabulate(cards.length)(i => k / strides(i + 1) % cards(i)))
    new CompressedData(cards, combos, found.counts)
  }

  /** The non-zero cells of a dense count array and their counts, in cell order. */
  private final case class Cells(at: Array[Int], counts: Array[Long]) {
    def addTo(total: Array[Long]): Unit = {
      var j = 0
      while (j < at.length) { total(at(j)) += counts(j); j += 1 }
    }
  }

  private object Cells {
    def nonZero(counts: Array[Long]): Cells = {
      var n = 0
      var k = 0
      while (k < counts.length) { if (counts(k) != 0) n += 1; k += 1 }
      val out = Cells(new Array[Int](n), new Array[Long](n))
      n = 0
      k = 0
      while (k < counts.length) {
        if (counts(k) != 0) { out.at(n) = k; out.counts(n) = counts(k); n += 1 }
        k += 1
      }
      out
    }
  }

  /** The path above the dense budget: one `groupBy` over the attribute columns, collected. */
  private def groupByScan(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData = {
    val rows = df.groupBy(attrs.map(col): _*).count().collect()
    new CompressedData(cards, rows.map(checkCodes(_, attrs, cards)), rows.map(_.getLong(attrs.length)))
  }

  /** The codes in a row's first columns, one per attribute, each checked to
    * be non-NULL and in `[0, c_i)`.
    */
  private def checkCodes(r: Row, attrs: Seq[String], cards: IndexedSeq[Int]): Array[Int] =
    Array.tabulate(attrs.length) { i =>
      require(!r.isNullAt(i), s"NULL in attribute column ${attrs(i)}")
      val code = r.getAs[Number](i).longValue()
      require(code >= 0 && code < cards(i),
        s"value $code out of range [0, ${cards(i)}) for attribute column ${attrs(i)}")
      code.toInt
    }
}
