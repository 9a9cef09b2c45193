package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
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

  test("collectCompressed matches DuckDB GROUP BY on both scan paths") {
    val schema = StructType(attrs.map(StructField(_, IntegerType)) :+ StructField("cnt", LongType))
    for ((path, data) <- Seq(
           "dense"   -> SparkCoverage.collectCompressed(compas, attrs, cards),
           "groupBy" -> viaGroupBy(compas, attrs, cards))) {
      val rows = data.combos.zip(data.counts).map { case (combo, n) => Row.fromSeq(combo.toSeq :+ n) }
      // The oracle fails by `require`, which a clue cannot annotate.
      try Oracle.assertEquivalent(
        spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema),
        s"SELECT ${attrs.mkString(", ")}, count(*) AS cnt FROM compas GROUP BY ${attrs.mkString(", ")}",
        "compas" -> compas.select(attrs.map(col): _*),
      ) catch { case e: IllegalArgumentException => fail(s"$path path: ${e.getMessage}") }
    }
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

  private def pairs(c: CompressedData) = c.combos.map(_.toVector).zip(c.counts).toMap

  /** The scan with the dense path switched off: the `groupBy` path at any `Π c_i`. */
  private def viaGroupBy(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData =
    SparkCoverage.collectCompressed(df, attrs, cards, denseCells = 0L)

  /** `rows` random binary rows over `d` int columns `a0 … a(d-1)`, and the same rows in memory. */
  private def binaryRows(d: Int, rows: Int, seed: Int): (DataFrame, Vector[IndexedSeq[Int]]) = {
    val rnd  = new scala.util.Random(seed)
    val data = Vector.fill(rows)(IndexedSeq.fill(d)(if (rnd.nextDouble() < 0.2) 1 else 0))
    val df   = spark.createDataFrame(
      java.util.Arrays.asList(data.map(r => Row.fromSeq(r)): _*),
      StructType(CoverageData.attrNames(d).map(StructField(_, IntegerType, nullable = false))))
    (df, data)
  }

  /** The descriptions of the Spark jobs `body` starts. */
  private def jobDescriptions(body: => Unit): Seq[String] = {
    val seen = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.add(String.valueOf(e.properties.getProperty("spark.job.description")))
    }
    val sc     = spark.sparkContext
    val marker = "end of the jobs under test"
    sc.addSparkListener(listener)
    try {
      body
      // Listener events arrive asynchronously but in order: once a last
      // marked job is seen, so is every job the body started.
      val outer = sc.getLocalProperty("spark.job.description")
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(outer)
      eventually(timeout(10.seconds)) { assert(seen.contains(marker)) }
    } finally sc.removeSparkListener(listener)
    seen.toArray(Array.empty[String]).toSeq.filter(_ != marker)
  }

  test("the dense scan rejects an out-of-range code that would alias onto a valid cell, and a negative code") {
    // Over cards (2, 2), the row (0, 2) would pack to cell 2, which is the combination (1, 0).
    val aliasing = Seq((0, 1), (0, 2)).toDF("a0", "a1")
    val negative = Seq((0, 1), (-1, 0)).toDF("a0", "a1")
    for ((df, message) <- Seq(
           aliasing -> "value 2 out of range [0, 2) for attribute column a1",
           negative -> "value -1 out of range [0, 2) for attribute column a0");
         (path, scan) <- Seq[(String, (DataFrame, Seq[String], IndexedSeq[Int]) => CompressedData)](
           "dense" -> (SparkCoverage.collectCompressed(_, _, _)), "groupBy" -> (viaGroupBy _))) {
      val e = intercept[IllegalArgumentException](scan(df, Seq("a0", "a1"), Vector(2, 2)))
      assert(e.getMessage.contains(message), s"$path: ${e.getMessage}")
    }
  }

  test("the dense scan and the groupBy scan give the same (combo, count) pairs") {
    val bluenile = CoverageData.bluenile(spark, 20000L, 3)
    for ((name, df, as, cs) <- Seq(
           ("COMPAS", compas, attrs, cards),
           ("BlueNile-like", bluenile, CoverageData.attrNames(7), CoverageData.bluenileCards))) {
      val dense   = SparkCoverage.collectCompressed(df, as, cs)
      val grouped = viaGroupBy(df, as, cs)
      assert(pairs(dense) == pairs(grouped), name)
      assert(dense.distinctCombos == grouped.distinctCombos && dense.total == df.count(), name)
      // The dense scan emits its combinations in lexicographic order.
      val order = dense.combos.map(_.toSeq).toSeq
      assert(order == order.sorted(Ordering.Implicits.seqOrdering[Seq, Int]), name)
    }
  }

  test("at the dense budget the scan counts densely; above it, and past Long.MaxValue, it groups") {
    for ((d, label) <- Seq(
           20 -> "L1 scan: dense counts over Π c_i = 1048576 cells",
           21 -> "L1 scan: groupBy (Π c_i over budget)",
           64 -> "L1 scan: groupBy (Π c_i over budget)")) {
      val (df, rows) = binaryRows(d, 400, seed = d)
      val cards = CoverageData.airbnbCards(d)
      var got: CompressedData = null
      val descriptions = jobDescriptions { got = SparkCoverage.collectCompressed(df, CoverageData.attrNames(d), cards) }
      assert(descriptions.nonEmpty && descriptions.forall(_ == label), s"d = $d: $descriptions")
      assert(pairs(got) == pairs(CompressedData.fromRows(rows, cards)), s"d = $d")
      assert(got.total == 400L, s"d = $d")
    }
  }

  test("an empty DataFrame gives no combinations and total 0 on both paths") {
    val empty = Seq.empty[(Int, Int)].toDF("a0", "a1")
    for (c <- Seq(SparkCoverage.collectCompressed(empty, Seq("a0", "a1"), Vector(2, 3)),
                  viaGroupBy(empty, Seq("a0", "a1"), Vector(2, 3)))) {
      assert(c.distinctCombos == 0)
      assert(c.total == 0L)
    }
  }

  test("the scan labels its Spark job and restores the caller's job description") {
    val sc  = spark.sparkContext
    val ok  = Seq((0, 1), (1, 0)).toDF("a0", "a1")
    val bad = Seq((0, 1), (0, 2)).toDF("a0", "a1")
    for (outer <- Seq("the caller's job", null)) {
      sc.setJobDescription(outer)
      try {
        val seen = jobDescriptions { SparkCoverage.collectCompressed(ok, Seq("a0", "a1"), Vector(2, 2)) }
        assert(seen == Seq("L1 scan: dense counts over Π c_i = 4 cells"), seen)
        assert(sc.getLocalProperty("spark.job.description") == outer)
        viaGroupBy(ok, Seq("a0", "a1"), Vector(2, 2))
        assert(sc.getLocalProperty("spark.job.description") == outer)
        intercept[IllegalArgumentException](SparkCoverage.collectCompressed(bad, Seq("a0", "a1"), Vector(2, 2)))
        assert(sc.getLocalProperty("spark.job.description") == outer)
      } finally sc.setJobDescription(null)
    }
  }

  test("a cardinality below 1 is rejected by a message naming the column") {
    val e = intercept[IllegalArgumentException] {
      SparkCoverage.collectCompressed(Seq((0, 0)).toDF("a0", "a1"), Seq("a0", "a1"), Vector(2, 0))
    }
    assert(e.getMessage.contains("attribute column a1 has cardinality 0"), e.getMessage)
  }
}
