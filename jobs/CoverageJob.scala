package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.{DeepDiver, MupAlgorithm, PatternBreaker, PatternCombiner}
import repro.spark.{CoverageData, SparkCoverage}

/** The spark-submit entrypoint: assess coverage (Problem 1) and, given λ,
  * remedy it (Problem 2) — one scan, one MUP search, then the enhancement.
  *
  * {{{
  * spark-submit --class repro.jobs.CoverageJob repro.jar \
  *   [dataset=airbnb|bluenile|compas] [n=rows] [d=13] [tauRate=0.001] \
  *   [algo=deepdiver|breaker|combiner] [maxLevel=0 (0 = unlimited)] [lambda=λ]
  * }}}
  *
  * τ = max(1, ⌊tauRate · rows read⌋); only airbnb reads `d`, and compas
  * ignores `n`. Without `n`, each generator's default size is used (airbnb
  * 100,000, bluenile 116,300). Prints the MUP count, the per-level histogram
  * and up to 50 MUPs. With `lambda`, `maxLevel` defaults to λ, the uncovered
  * level-λ patterns `M_λ` are hit by GREEDY, and up to 50 of the value
  * combinations to collect are printed.
  *
  * The §V-B COMPAS audit (τ = 10) is `dataset=compas tauRate=0.0015`.
  * An argument that is not `key=value` with a known key, a numeric argument
  * that is not a number, a `tauRate` outside [0, 1] (or NaN), an `n` below 1,
  * a negative `lambda` or `maxLevel`, an airbnb `d` outside 1..64, or a λ
  * above the dataset's d, is rejected by a message naming the key before a
  * session starts.
  */
object CoverageJob {
  private val keys = Seq("dataset", "n", "d", "tauRate", "algo", "maxLevel", "lambda")

  def main(args: Array[String]): Unit = {
    val opts = args.map(a => a.split("=", 2) match {
      case Array(k, v) if keys.contains(k) => k -> v
      case _ => throw new IllegalArgumentException(s"unknown argument '$a': expected key=value, key one of ${keys.mkString(", ")}")
    }).toMap
    /** The value of `key`, if given, read by `read`; a value that is not a
      * number is rejected by a message naming the key and the expected form.
      */
    def num[T](key: String, form: String)(read: String => T): Option[T] =
      opts.get(key).map(v =>
        try read(v)
        catch { case _: NumberFormatException => throw new IllegalArgumentException(s"$key=$v must be $form") })
    val dataset = opts.getOrElse("dataset", "airbnb")
    val n       = num("n", "an integer")(_.toLong)
    val d       = num("d", "an integer")(_.toInt).getOrElse(13)
    val tauRate = num("tauRate", "a number")(_.toDouble).getOrElse(0.001)
    val lambda  = num("lambda", "an integer")(_.toInt)
    val level   = num("maxLevel", "an integer")(_.toInt)
    require(tauRate >= 0.0 && tauRate <= 1.0, s"tauRate=$tauRate must be a rate in [0, 1]")
    for (v <- n) require(v >= 1, s"n=$v must be at least 1")
    for (l <- lambda) require(l >= 0, s"lambda=$l must not be negative")
    for (m <- level) require(m >= 0, s"maxLevel=$m must not be negative (0 = unlimited)")
    if (dataset == "airbnb") require(d >= 1 && d <= 64, s"d=$d must be in 1..64")
    val maxLvl  = level.orElse(lambda).filter(_ > 0).getOrElse(Int.MaxValue)
    for (l <- lambda)
      require(maxLvl >= l, s"maxLevel $maxLvl is below lambda $l: the level-$l patterns to hit would be incomplete")
    val algo: MupAlgorithm = opts.getOrElse("algo", "deepdiver") match {
      case "deepdiver" => DeepDiver
      case "breaker"   => PatternBreaker
      case "combiner"  => PatternCombiner
      case other       => sys.error(s"unknown algo $other")
    }
    val (cards, source): (IndexedSeq[Int], SparkSession => (DataFrame, Seq[String])) = dataset match {
      case "airbnb"   => (CoverageData.airbnbCards(d), s => (CoverageData.airbnb(s, n.getOrElse(100000L), d), CoverageData.attrNames(d)))
      case "bluenile" => (CoverageData.bluenileCards, s => (n.fold(CoverageData.bluenile(s))(CoverageData.bluenile(s, _)), CoverageData.attrNames(7)))
      case "compas"   => (CoverageData.compasCards, s => (CoverageData.compas(s), CoverageData.compasAttrs))
      case other      => sys.error(s"unknown dataset $other")
    }
    for (l <- lambda)
      require(l <= cards.size, s"lambda=$l exceeds the dataset's d=${cards.size}: there is no level-$l pattern to hit")

    withSpark { spark =>
      val (df, attrs) = source(spark)
      val data = SparkCoverage.collectCompressed(df, attrs, cards)
      val tau  = data.tau(tauRate)
      val t0   = System.nanoTime()
      val res  = algo.findMups(data, tau, maxLvl)
      val secs = (System.nanoTime() - t0) / 1e9
      println(f"dataset=$dataset n=${data.total} d=${data.dim} tau=$tau algo=${algo.name} " +
        f"mups=${res.mups.size} time=$secs%.2fs covCalls=${res.covCalls}")
      println(s"level histogram: ${res.levelHistogram.toSeq.sortBy(_._1).mkString(", ")}")
      res.mups.toSeq.sortBy(p => (p.level, p.toString)).take(50).foreach(p => println(s"  MUP $p"))

      for (l <- lambda) {
        val toHit = LevelExpansion.uncoveredAtLevel(res.mups, cards, l).toVector
        val t1    = System.nanoTime()
        val hit   = GreedyHitter.run(toHit, cards)
        println(f"lambda=$l input=${toHit.size} output=${hit.combos.size} time=${(System.nanoTime() - t1) / 1e9}%.2fs")
        hit.combos.take(50).foreach(c => println(s"  collect ${c.mkString("[", ",", "]")}"))
      }
    }
  }

  /** Reuse an already-running SparkSession (so the job is callable in-process,
    * e.g. from tests) and only stop a session this job itself created.
    */
  private def withSpark(body: SparkSession => Unit): Unit = {
    val preExisting = SparkSession.getActiveSession.orElse(SparkSession.getDefaultSession)
    val spark = preExisting.getOrElse(SparkSession.builder().appName("coverage").getOrCreate())
    try body(spark)
    finally if (preExisting.isEmpty) spark.stop()
  }
}
