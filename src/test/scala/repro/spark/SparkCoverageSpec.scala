package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.{Oracle, SparkSpec}
import repro.core.{CompressedData, InvertedIndex, Pattern}
import repro.core.mup.DeepDiver

/** The Spark scan layer vs the DuckDB oracle and the in-memory coverage
  * oracle.
  */
class SparkCoverageSpec extends SparkSpec {

  import spark.implicits._

  private lazy val compas: DataFrame = CoverageData.compas(spark).cache()
  private val attrs = CoverageData.compasAttrs
  private val cards = CoverageData.compasCards

  test("compress matches DuckDB GROUP BY (full combo aggregation)") {
    val compressed = SparkCoverage.compress(compas.select(attrs.map(col): _*), attrs)
    Oracle.assertEquivalent(
      compressed,
      s"SELECT ${attrs.mkString(", ")}, count(*) AS cnt FROM compas GROUP BY ${attrs.mkString(", ")}",
      "compas" -> compas.select(attrs.map(col): _*),
    )
  }

  test("collectCompressed equals an in-memory aggregation of the same rows") {
    val rows = compas.select(attrs.map(col): _*).collect()
      .map(r => (0 until 4).map(r.getInt): IndexedSeq[Int]).toVector
    val viaSpark  = SparkCoverage.collectCompressed(compas, attrs, cards)
    val viaMemory = CompressedData.fromRows(rows, cards)
    assert(viaSpark.total == viaMemory.total)
    assert(viaSpark.distinctCombos == viaMemory.distinctCombos)
    val idxS = new InvertedIndex(viaSpark)
    val idxM = new InvertedIndex(viaMemory)
    for (p <- Seq("XXXX", "1XXX", "XX23", "X1X2", "0303").map(Pattern.parse))
      assert(idxS.cov(p) == idxM.cov(p), s"pattern $p")
    // Byte, short and long code columns give the same (combo, count) pairs.
    def pairs(c: CompressedData) = c.combos.map(_.toVector).zip(c.counts).toMap
    for (t <- Seq("byte", "short", "long")) {
      val cast = compas.select(attrs.map(a => col(a).cast(t).as(a)): _*)
      assert(pairs(SparkCoverage.collectCompressed(cast, attrs, cards)) == pairs(viaMemory), s"$t codes")
    }
  }

  test("pattern coverage on COMPAS matches DuckDB filters") {
    val index = new InvertedIndex(SparkCoverage.collectCompressed(compas, attrs, cards))
    // The oracle loads every column as VARCHAR, hence the quoted codes.
    val checks = Seq(
      Pattern.parse("1XXX") -> "sex = '1'",
      Pattern.parse("X12X") -> "age = '1' AND race = '2'",
      Pattern.parse("0X23") -> "sex = '0' AND race = '2' AND marital = '3'",
    )
    for ((p, whereClause) <- checks) {
      val cnt = spark.createDataFrame(
        java.util.Arrays.asList(Row(index.cov(p))),
        StructType(Seq(StructField("cnt", LongType))))
      Oracle.assertEquivalent(
        cnt,
        s"SELECT count(*) AS cnt FROM compas WHERE $whereClause",
        "compas" -> compas.select(attrs.map(col): _*),
      )
    }
  }

  // The assess job: the one scan, then DeepDiver in memory.
  test("assess reports the widowed-Hispanic gap: cov(XX23) = 2 < τ = 10") {
    val data = SparkCoverage.collectCompressed(compas, attrs, cards)
    assert(data.total == 6889L)
    assert(new InvertedIndex(data).cov(Pattern.parse("XX23")) == 2L)
    val res = DeepDiver.findMups(data, 10)
    // XX23 itself is uncovered: either it is a MUP or some ancestor MUP dominates it
    val covered = res.mups.exists(m => m == Pattern.parse("XX23") || m.dominates(Pattern.parse("XX23")))
    assert(covered, s"XX23 not explained by MUPs ${res.mups}")
    assert(res.levelHistogram.values.sum == res.mups.size)
  }

  test("collectCompressed rejects a NULL attribute or an out-of-range code, naming it") {
    val withNull = Seq[(Option[Int], Option[Int])]((Some(0), Some(1)), (Some(1), None)).toDF("a0", "a1")
    val e = intercept[IllegalArgumentException] {
      SparkCoverage.collectCompressed(withNull, Seq("a0", "a1"), Vector(2, 2))
    }
    assert(e.getMessage.contains("NULL in attribute column a1"), e.getMessage)

    val outOfRange = Seq((0, 1), (5, 0)).toDF("a0", "a1")
    val r = intercept[IllegalArgumentException] {
      SparkCoverage.collectCompressed(outOfRange, Seq("a0", "a1"), Vector(2, 2))
    }
    assert(r.getMessage.contains("value 5 out of range [0, 2)"), r.getMessage)
    val short = intercept[IllegalArgumentException] {
      SparkCoverage.collectCompressed(outOfRange, Seq("a0", "a1"), Vector(2))
    }
    assert(short.getMessage.contains("2 attributes but 1 cardinalities"), short.getMessage)

    // A 64-bit code is range-checked before it is narrowed: 2^32 + 1 is not 1.
    val wide = Seq((0L, 1), (4294967297L, 0)).toDF("a0", "a1")
    val w = intercept[IllegalArgumentException] {
      SparkCoverage.collectCompressed(wide, Seq("a0", "a1"), Vector(2, 2))
    }
    assert(w.getMessage.contains("value 4294967297 out of range [0, 2) for attribute column a0"), w.getMessage)

    // A non-integral column is rejected by type before the scan, not truncated or cast.
    for ((df, typ) <- Seq(
           Seq((0, 1.5), (1, 0.0)).toDF("a0", "a1") -> "double",
           Seq((0, "1"), (1, "0")).toDF("a0", "a1") -> "string",
           Seq((0, true), (1, false)).toDF("a0", "a1") -> "boolean")) {
      val t = intercept[IllegalArgumentException] {
        SparkCoverage.collectCompressed(df, Seq("a0", "a1"), Vector(2, 2))
      }
      assert(t.getMessage.contains(s"attribute column a1 has type $typ"), t.getMessage)
    }
  }
}
