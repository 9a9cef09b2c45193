package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic stand-ins for the paper's three real datasets (§V-A).
  *
  * All generators are deterministic in `(n, d, seed)`: every pseudo-random
  * draw is `murmur3(id, salt) → uniform [0,1)` on the row id, so results do
  * not depend on partitioning or core count. Attribute values are integer
  * codes `0..c_i-1`, matching the search layer's encoding. DESIGN.md §3
  * documents why each substitution preserves the paper's behaviour.
  */
object CoverageData {

  /** Attribute column names `a0..a{d-1}`. */
  def attrNames(d: Int): Seq[String] = (0 until d).map(i => s"a$i")

  /** Deterministic uniform [0,1) from the row id and a salt. */
  private def u01(salt: Int): Column =
    pmod(hash(col("id"), lit(salt)), lit(1 << 20)).cast(DoubleType) / (1 << 20).toDouble

  /** Categorical draw via inverse CDF over explicit probabilities. */
  private def categorical(probs: Seq[Double], salt: Int): Column = {
    val total = probs.sum
    val cum   = probs.scanLeft(0.0)(_ + _).tail.map(_ / total)
    val u     = u01(salt)
    // nested CASE: first threshold the draw falls under
    cum.init.zipWithIndex.foldRight(lit(probs.size - 1): Column) {
      case ((thr, i), els) => when(u < thr, lit(i)).otherwise(els)
    }
  }

  // ---------------------------------------------------------------- AirBnB

  /** AirBnB-like: `n` rows, `d` boolean attributes. Per-attribute rates are
    * spread over [0.02, 0.98] (rare amenities create uncovered regions), with
    * mild positive correlation through one latent factor so joint rarities
    * are not purely the product of marginals.
    */
  def airbnb(spark: SparkSession, n: Long, d: Int, seed: Int = 42): DataFrame = {
    require(d >= 1 && d <= 64, s"d=$d out of range")
    val rnd   = new scala.util.Random(seed)
    val rates = Array.fill(d)(0.008 * math.pow(122.5, rnd.nextDouble())) // log-uniform [0.008, 0.98]
    val base  = spark.range(0, n, 1, 16)
    val latent = u01(seed * 31 + 7)
    val cols = (0 until d).map { i =>
      val p = rates(i)
      // mild shared-factor correlation; kept small so rare attribute *pairs*
      // can still fall under low thresholds (the paper's AirBnB has level-2
      // MUPs at τ=0.1%)
      val eff = least(lit(0.99), greatest(lit(0.005), lit(p) + (latent - 0.5) * 0.05))
      (u01(seed * 131 + i) < eff).cast(IntegerType).as(s"a$i")
    }
    base.select(cols: _*)
  }

  /** Cardinalities for [[airbnb]]: all binary. */
  def airbnbCards(d: Int): IndexedSeq[Int] = IndexedSeq.fill(d)(2)

  // -------------------------------------------------------------- BlueNile

  /** BlueNile cardinalities from the paper: shape, cut, color, clarity,
    * polish, symmetry, fluorescence.
    */
  val bluenileCards: IndexedSeq[Int] = IndexedSeq(10, 4, 7, 8, 3, 3, 5)

  /** BlueNile-like: 116,300 rows by default, 7 attributes with the paper's
    * cardinalities and Zipf-skewed marginals (P(v) ∝ 1/(v+1)), preserving the
    * wide bottom level (100,800 leaf combos) that penalizes bottom-up search.
    */
  def bluenile(spark: SparkSession, n: Long = 116300L, seed: Int = 7): DataFrame = {
    val base = spark.range(0, n, 1, 16)
    val cols = bluenileCards.zipWithIndex.map { case (c, i) =>
      val probs = (0 until c).map(v => 1.0 / (v + 1))
      categorical(probs, seed * 17 + i).as(s"a$i")
    }
    base.select(cols: _*)
  }

  // ---------------------------------------------------------------- COMPAS

  /** COMPAS cardinalities: sex×2, age×4, race×4, marital×7 (paper §V-A). */
  val compasCards: IndexedSeq[Int] = IndexedSeq(2, 4, 4, 7)

  /** Column names for [[compas]]: the 4 observation attributes + label. */
  val compasAttrs: Seq[String] = Seq("sex", "age", "race", "marital")

  /** COMPAS-like: exactly 6,889 rows with engineered structure (DESIGN.md §3):
    *
    *  - 6,788 base rows: sex ~ 81% male; age skewed to 20–39; race
    *    AA/Caucasian-dominant; marital mostly single. Hispanic females and
    *    widowed Hispanics are excluded from the base (re-mapped when drawn).
    *  - 99 Hispanic-female rows (marital never widowed).
    *  - 1 widowed Hispanic female + 1 widowed Hispanic male, both recidivists
    *    — the paper's `XX23` anecdote, and HF #100.
    *
    * Recidivism label: males 65%, non-Hispanic females 60%, Hispanic females
    * 25% — the under-covered group's rate *opposes* the broader cells it
    * falls back to, so a tree trained without HF coverage badly mispredicts
    * HF (the paper's widowed-Hispanic anecdote generalized).
    */
  def compas(spark: SparkSession, seed: Int = 11): DataFrame = {
    val base = spark.range(0, 6788L, 1, 8).select(
      categorical(Seq(0.81, 0.19), seed + 1).as("sex"),
      categorical(Seq(0.08, 0.57, 0.31, 0.04), seed + 2).as("age"),
      categorical(Seq(0.51, 0.34, 0.08, 0.07), seed + 3).as("race"),
      categorical(Seq(0.755, 0.10, 0.025, 0.015, 0.025, 0.05, 0.01), seed + 4).as("marital"),
      u01(seed + 5).as("u"),
    )
      // keep Hispanic females and widowed Hispanics out of the base rows
      .withColumn("sex", when(col("race") === 2 && col("sex") === 1, 0).otherwise(col("sex")))
      .withColumn("marital", when(col("race") === 2 && col("marital") === 3, 0).otherwise(col("marital")))
      .withColumn("recid",
        when(col("sex") === 0, (col("u") < 0.65).cast(IntegerType))
          .otherwise((col("u") < 0.60).cast(IntegerType)))
      .drop("u")

    val hf = spark.range(0, 99L, 1, 1).select(
      lit(1).as("sex"),
      categorical(Seq(0.10, 0.60, 0.25, 0.05), seed + 6).as("age"),
      lit(2).as("race"),
      // no widowed (index 3) among the 99
      categorical(Seq(0.70, 0.12, 0.05, 0.0, 0.04, 0.07, 0.02), seed + 7).as("marital"),
      (u01(seed + 8) < 0.25).cast(IntegerType).as("recid"),
    )

    val schema = StructType(Seq(
      StructField("sex", IntegerType, nullable = false),
      StructField("age", IntegerType, nullable = false),
      StructField("race", IntegerType, nullable = false),
      StructField("marital", IntegerType, nullable = false),
      StructField("recid", IntegerType, nullable = false),
    ))
    val pinned = spark.createDataFrame(
      java.util.Arrays.asList(
        Row(1, 2, 2, 3, 1), // widowed Hispanic female, re-offended (HF #100)
        Row(0, 2, 2, 3, 1), // widowed Hispanic male, re-offended
      ),
      schema,
    )
    base.unionByName(hf).unionByName(pinned)
  }
}
