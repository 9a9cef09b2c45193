package covbench

import java.io.{File, PrintWriter}
import java.time.Instant
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CompressedData, InvertedIndex, MupDominanceIndex, Pattern}
import repro.core.enhance.{GreedyHitter, LevelExpansion, PatternHitIndex}
import repro.core.mup.{DeepDiver, MupAlgorithm, MupResult, PatternBreaker, PatternCombiner}
import repro.spark.SparkCoverage
import scala.collection.mutable

/** Benchmark JVM: generates one workload's input, then times the two user
  * jobs from the cached DataFrame to the answer, built from the same public
  * calls in the same order as `MupIdentificationJob` and
  * `CoverageEnhancementJob`:
  *
  *  - assess:  `collectCompressed` → `DeepDiver` / `PatternBreaker` /
  *             `PatternCombiner.findMups(data, τ)`
  *  - remedy:  `collectCompressed` → `DeepDiver.findMups(data, τ, λ)` →
  *             `LevelExpansion.uncoveredAtLevel` → `GreedyHitter.run`
  *
  * Operations run round-robin, so a slow phase of the host hits every one
  * alike. Untraced rounds give the end-to-end times; traced rounds record a
  * span around each call into a layer, plus probes of the core indices.
  * Every timed operation passes a correctness gate or counts as failed.
  *
  * Arguments: `--workload W --seed N --seconds S --trace 0|1 --launch-ns T
  * --threads K --partitions P --out DIR`, where T is the wall-clock time in
  * ns at which the JVM was launched. Prints one `RESULT {json}` line.
  */
object CovBench {

  /** Set-ups per end-to-end run; `setup_s` is their median. */
  val Setups = 3

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w        = Workloads.byName(opts("workload"))
    val seed     = opts("seed").toInt
    val traced   = opts("trace") == "1"
    val out      = new File(opts("out"))
    def nowNs: Long = { val t = Instant.now(); t.getEpochSecond * 1000000000L + t.getNano }

    def session(): SparkSession = SparkSession.builder
      .appName(s"covbench-${w.name}")
      .master(s"local[${opts("threads").toInt}]")
      .config("spark.sql.shuffle.partitions", opts("partitions").toInt)
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(out, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()

    // Set-up: SparkSession start, then the input generated, cached and
    // counted. The first one runs from the JVM's launch; later ones start a
    // fresh SparkSession in the same JVM. The last one's input is benchmarked.
    val setups = mutable.ArrayBuffer.empty[Double]
    var start = opts("launch-ns").toLong
    var spark: SparkSession = null
    var df: DataFrame = null
    var rows = 0L
    while (setups.size < (if (traced) 1 else Setups)) {
      if (spark != null) { spark.stop(); start = nowNs }
      spark = session()
      spark.sparkContext.setLogLevel("ERROR")
      df = w.generate(spark, seed).cache()
      rows = df.count()
      setups += (nowNs - start) / 1e9
    }
    try {
      val bench = new Bench(w, seed, df, rows, traced)
      val result = bench.run(opts("seconds").toDouble, setups.toSeq)
      bench.writeSpans(new File(out, s"spans-${w.name}-seed$seed.jsonl"))
      println("RESULT " + result)
    } finally spark.stop()
  }
}

/** Runs one workload's rounds and holds its correctness references. */
final class Bench(w: Workload, seed: Int, df: DataFrame, rows: Long, traced: Boolean) {
  private val tracer = new Tracer(w.name)
  private val gate   = new Gate(w, seed, rows)

  // Latest outputs, reused by the probes of the traced rounds.
  private var lastData: CompressedData = _
  private var lastToHit: Vector[Pattern] = Vector.empty

  private def compress(): CompressedData =
    tracer.span("spark.collectCompressed")(SparkCoverage.collectCompressed(df, w.attrs, w.cards))

  private def assessWith(algo: MupAlgorithm, span: String, key: String)(): Unit = {
    val (data, tau, res) = tracer.span(key) {
      val data = compress()
      val tau  = w.tauOf(data.total)
      (data, tau, tracer.span(span)(algo.findMups(data, tau)))
    }
    lastData = data
    gate.assessed(key, algo.name, data, tau, res)
  }

  private def remedy(): Unit = {
    val (data, tau, mups, toHit, greedy) = tracer.span("remedy") {
      val data  = compress()
      val tau   = w.tauOf(data.total)
      val mups  = tracer.span("mup.DeepDiver.findMups.lambda")(DeepDiver.findMups(data, tau, w.lambda))
      val toHit = tracer.span("enhance.LevelExpansion.uncoveredAtLevel")(
        LevelExpansion.uncoveredAtLevel(mups.mups, w.cards, w.lambda).toVector)
      val greedy = tracer.span("enhance.GreedyHitter.run")(GreedyHitter.run(toHit, w.cards))
      (data, tau, mups, toHit, greedy)
    }
    lastData = data
    lastToHit = toHit
    gate.remedied(data, tau, mups, toHit, greedy)
  }

  private val assess        = assessWith(DeepDiver, "mup.DeepDiver.findMups", "assess") _
  private val assessBreaker = assessWith(PatternBreaker, "mup.PatternBreaker.findMups", "assess_breaker") _
  private val assessCombiner = assessWith(PatternCombiner, "mup.PatternCombiner.findMups", "assess_combiner") _

  /** The timed end-to-end operations, in round order. PatternBreaker and
    * PatternCombiner run, and are checked, in the traced rounds only: with
    * them in every round the runs no longer fit the benchmark's time budget.
    */
  private val ops: Seq[(String, () => Unit)] = Seq("assess" -> assess, "remedy" -> (() => remedy()))

  private def timed(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  /** One round-robin pass over the operations; returns each one's seconds. */
  private def round(): Map[String, Double] =
    ops.map { case (name, op) => name -> timed(op()) }.toMap

  // Samples per op, per phase.
  private val warmSamples   = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val plainSamples  = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val tracedSamples = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private def add(into: mutable.Map[String, mutable.ArrayBuffer[Double]], r: Map[String, Double]): Unit =
    r.foreach { case (k, v) => into.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }

  /** Warm up until every operation is steady: its last three calls lie
    * within [[Bench.SteadyTol]] of their median. Gives up, and says so, after
    * [[Bench.MaxWarmSeconds]].
    */
  private def warmUp(): (Int, Double, Boolean) = {
    val t0 = System.nanoTime()
    var rounds = 0
    var steady = false
    while (rounds < Bench.MinWarmRounds || (!steady && (System.nanoTime() - t0) / 1e9 < Bench.MaxWarmSeconds)) {
      add(warmSamples, round())
      rounds += 1
      steady = warmSamples.values.forall { s =>
        val last = s.takeRight(3).toSeq
        val mid  = Stats.median(last)
        last.forall(x => math.abs(x - mid) <= Bench.SteadyTol * mid)
      }
    }
    (rounds, (System.nanoTime() - t0) / 1e9, steady)
  }

  def run(seconds: Double, setups: Seq[Double]): String = {
    val (warmRounds, warmS, steady) = warmUp()
    val t0 = System.nanoTime()
    var rounds = 0
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (rounds < Bench.MinRounds * (if (traced) 2 else 1) || elapsed < seconds) {
      // In a traced run, untraced and traced rounds alternate so that the
      // tracing overhead is measured under the same host conditions.
      val traceThis = traced && rounds % 2 == 1
      tracer.round = rounds
      tracer.enabled = traceThis
      if (traceThis) {
        add(tracedSamples, round())
        probes()
      } else add(plainSamples, round())
      rounds += 1
    }
    if (traced && !w.combinerPerRound) {
      // One call only: see Workloads for why it stays out of the rounds.
      tracer.round = rounds
      tracer.enabled = true
      assessCombiner()
    }
    gate.finish()

    val metrics: Seq[(String, Double, String)] =
      if (traced) layerMetrics(warmRounds, warmS)
      else ("setup_s", Stats.median(setups), "s") +:
        ops.map { case (name, _) => (s"${name}_s", Stats.median(plainSamples(name).toSeq), "s") }
    val info = Seq(
      "workload" -> Json.str(w.name), "seed" -> seed.toString,
      "default_seed" -> w.defaultSeed.toString,
      "trace" -> Json.bool(traced),
      "warmup_rounds" -> warmRounds.toString, "warmup_s" -> Json.num(warmS),
      "warmup_steady" -> Json.bool(steady),
      "setup_samples" -> setups.map(Json.num).mkString("[", ",", "]"),
      "rounds" -> rounds.toString, "measured_s" -> Json.num(elapsed),
      "samples" -> Json.obj(plainSamples.toSeq.sortBy(_._1).map { case (k, v) => k -> v.size.toString }),
      "warmup_seconds" -> Json.obj(warmSamples.toSeq.sortBy(_._1).map { case (k, v) =>
        k -> v.map(Json.num).mkString("[", ",", "]") }),
      "round_seconds" -> Json.obj(plainSamples.toSeq.sortBy(_._1).map { case (k, v) =>
        k -> v.map(Json.num).mkString("[", ",", "]") }),
    )
    Json.obj(Seq(
      "correct" -> Json.bool(gate.failed == 0),
      "attempted" -> gate.attempted.toString,
      "failed" -> gate.failed.toString,
      "problems" -> gate.problems.take(20).map(Json.str).mkString("[", ",", "]"),
      "counts" -> Json.obj(gate.counts.toSeq.sortBy(_._1).map { case (k, v) => k -> v.toString }),
      "metrics" -> Json.obj(metrics.map { case (k, v, unit) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit))) }),
      "info" -> Json.obj(info),
    ))
  }

  // ------------------------------------------------------------ traced run

  private var sink = 0L
  private lazy val probeMups: Vector[Pattern] = gate.refMups.toVector.sortBy(p => (p.level, p.toString))
  /** Fixed probe set for the core indices: every MUP and each of its parents. */
  private lazy val probeSet: Vector[Pattern] = (probeMups ++ probeMups.flatMap(_.parents)).distinct

  /** Per traced round: direct calls into the core indices and the hit index,
    * PatternBreaker, PatternCombiner where it is cheap enough, and the host
    * reference loop.
    */
  private def probes(): Unit = {
    val idx = tracer.span("core.InvertedIndex.new")(new InvertedIndex(lastData))
    tracer.span("core.InvertedIndex.cov")(probeSet.foreach(p => sink += idx.cov(p)))
    val dom = new MupDominanceIndex(w.cards)
    tracer.span("core.MupDominanceIndex.add")(probeMups.foreach(dom.add))
    tracer.span("core.MupDominanceIndex.check")(probeSet.foreach { p =>
      if (dom.dominatesSome(p)) sink += 1
      if (dom.dominatedBySome(p)) sink += 1
    })
    val hit = tracer.span("enhance.PatternHitIndex.new")(new PatternHitIndex(lastToHit, w.cards))
    sink += hit.words
    assessBreaker()
    if (w.combinerPerRound) assessCombiner()
    sink += tracer.span("host.ref")(Bench.hostRef())
  }

  private def layerMetrics(warmRounds: Int, warmS: Double): Seq[(String, Double, String)] = {
    val spans = tracer.all
    val self  = tracer.selfNanos
    def selfOf(name: String): Seq[Double] = spans.filter(_.name == name).map(s => self(s.id) / 1e9)
    def med(name: String): Double = Stats.median(selfOf(name))
    def c(key: String): Double = gate.counts(key).toDouble
    val k = c("combos")
    val m = c("to_hit")
    val cardSum = w.cards.sum.toDouble
    val compressS = med("spark.collectCompressed")
    val ddS = med("mup.DeepDiver.findMups")
    val opNames = ops.map(_._1)
    val tracedOp = opNames.map(n => Stats.median(tracedSamples(n).toSeq)).sum
    val plainOp  = opNames.map(n => Stats.median(plainSamples(n).toSeq)).sum
    val opSpans  = spans.filter(s => Set("assess", "assess_breaker", "assess_combiner", "remedy")(s.name))
    val hostRef  = selfOf("host.ref")
    Seq(
      ("spark.compress_s", compressS, "s"),
      ("spark.rows", c("rows"), "count"),
      ("spark.combos", k, "count"),
      ("spark.rows_per_s", c("rows") / compressS, "1/s"),
      ("core.index_build_s", med("core.InvertedIndex.new"), "s"),
      ("core.index_bytes", cardSum * math.ceil(k / 64) * 8, "bytes"),
      ("core.cov_us", med("core.InvertedIndex.cov") * 1e6 / probeSet.size, "us"),
      ("core.dominance_add_us", med("core.MupDominanceIndex.add") * 1e6 / probeMups.size, "us"),
      ("core.dominance_check_us", med("core.MupDominanceIndex.check") * 1e6 / (2 * probeSet.size), "us"),
      ("mup.deepdiver_s", ddS, "s"),
      ("mup.deepdiver.nodes", c("deepdiver.nodes"), "count"),
      ("mup.deepdiver.cov_calls", c("deepdiver.cov_calls"), "count"),
      ("mup.deepdiver.cov_per_node", c("deepdiver.cov_calls") / c("deepdiver.nodes"), "ratio"),
      ("mup.deepdiver.us_per_node", ddS * 1e6 / c("deepdiver.nodes"), "us"),
      ("mup.breaker_s", med("mup.PatternBreaker.findMups"), "s"),
      ("mup.breaker.nodes", c("breaker.nodes"), "count"),
      ("mup.breaker.cov_calls", c("breaker.cov_calls"), "count"),
      ("mup.breaker.cov_per_node", c("breaker.cov_calls") / c("breaker.nodes"), "ratio"),
      ("mup.combiner_s", med("mup.PatternCombiner.findMups"), "s"),
      ("mup.combiner.nodes", c("combiner.nodes"), "count"),
      ("mup.combiner.cov_calls", c("combiner.cov_calls"), "count"),
      ("mup.mups", c("mups"), "count"),
      ("mup.deepdiver_lambda_s", med("mup.DeepDiver.findMups.lambda"), "s"),
      ("enhance.expand_s", med("enhance.LevelExpansion.uncoveredAtLevel"), "s"),
      ("enhance.to_hit", m, "count"),
      ("enhance.hit_index_s", med("enhance.PatternHitIndex.new"), "s"),
      ("enhance.hit_index_bytes", cardSum * math.ceil(m / 64) * 8, "bytes"),
      ("enhance.greedy_s", med("enhance.GreedyHitter.run"), "s"),
      ("enhance.greedy_nodes", c("greedy.nodes"), "count"),
      ("enhance.combos", c("greedy.combos"), "count"),
      ("enhance.hits_per_combo", m / c("greedy.combos"), "ratio"),
      ("host.ref_s", Stats.median(hostRef), "s"),
      ("host.ref_spread", Stats.iqrShare(hostRef), "ratio"),
      ("bench.op_spread", Stats.median(opNames.map(n => Stats.iqrShare(plainSamples(n).toSeq))), "ratio"),
      ("bench.warmup_s", warmS, "s"),
      ("bench.warmup_rounds", warmRounds.toDouble, "count"),
      ("trace.overhead_share", tracedOp / plainOp - 1, "ratio"),
      ("trace.unaccounted_share", opSpans.map(s => self(s.id)).sum.toDouble / opSpans.map(_.nanos).sum, "ratio"),
    )
  }

  def writeSpans(file: File): Unit = if (traced) {
    file.getParentFile.mkdirs()
    val pw = new PrintWriter(file, "UTF-8")
    try tracer.all.foreach(s => pw.println(s.toJson)) finally pw.close()
  }
}

object Bench {
  val MinWarmRounds  = 3
  val MaxWarmSeconds = 12.0
  val SteadyTol      = 0.15
  val MinRounds      = 3

  /** Fixed CPU-bound loop (xorshift), independent of the program: its time
    * tells a slow host apart from a slow change.
    */
  def hostRef(): Long = {
    var x = 88172645463325252L
    var s = 0L
    var i = 0
    while (i < 100000000) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      s += x & 1023
      i += 1
    }
    s
  }
}

/** The correctness gate: every timed operation is checked, and a failed check
  * counts that operation as failed. The first result of each kind is verified
  * from first principles; later ones must equal it, and every work counter
  * must repeat exactly.
  */
final class Gate(w: Workload, seed: Int, rows: Long) {
  var attempted = 0
  var failed    = 0
  val problems  = mutable.ArrayBuffer.empty[String]
  val counts    = mutable.LinkedHashMap.empty[String, Long]

  var refMups: Set[Pattern] = _
  private var refToHit: Vector[Pattern] = _
  private var refChosen: Vector[Vector[Int]] = _
  private val pinned = seed == w.defaultSeed

  private def judge(op: String)(checks: => Seq[String]): Unit = {
    attempted += 1
    val bad = try checks catch { case e: Exception => Seq(s"check threw $e") }
    if (bad.nonEmpty) { failed += 1; problems ++= bad.map(b => s"$op: $b") }
  }

  /** Records a work counter; a value that differs from the first is a problem. */
  private def count(key: String, v: Long): Option[String] =
    counts.get(key) match {
      case Some(prev) if prev != v => Some(s"$key drifted: $prev then $v")
      case Some(_)                 => None
      case None                    => counts(key) = v; None
    }

  private def l1(data: CompressedData): Seq[String] =
    Seq(
      Option.when(data.total != rows)(s"sum of counts ${data.total} != $rows rows"),
      count("rows", data.total),
      count("combos", data.distinctCombos.toLong),
      Option.when(pinned && data.distinctCombos != w.expected.combos)(
        s"K ${data.distinctCombos} != pinned ${w.expected.combos}"),
    ).flatten

  /** Definition 5: every MUP is uncovered and all its parents are covered. */
  private def definition5(data: CompressedData, tau: Long, mups: Set[Pattern]): Seq[String] = {
    val idx = new InvertedIndex(data)
    mups.iterator.flatMap { m =>
      if (idx.cov(m) >= tau) Some(s"MUP $m is covered")
      else m.parents.find(q => idx.cov(q) < tau).map(q => s"MUP $m has uncovered parent $q")
    }.take(5).toSeq
  }

  def assessed(op: String, algo: String, data: CompressedData, tau: Long, res: MupResult): Unit =
    judge(op) {
      val key = algo.toLowerCase.stripPrefix("pattern")
      val first = if (refMups == null) {
        require(algo == DeepDiver.name, "the first assessment must be DeepDiver's")
        refMups = res.mups
        definition5(data, tau, res.mups) ++
          Option.when(pinned && res.mups.size != w.expected.mups)(
            s"${res.mups.size} MUPs != pinned ${w.expected.mups}")
      } else Nil
      l1(data) ++ first ++
        Option.when(res.mups != refMups)(s"$algo found ${res.mups.size} MUPs, DeepDiver ${refMups.size}") ++
        count(s"$key.nodes", res.nodesVisited) ++ count(s"$key.cov_calls", res.covCalls) ++
        count("mups", res.mups.size.toLong)
    }

  def remedied(data: CompressedData, tau: Long, mups: MupResult, toHit: Vector[Pattern],
               greedy: GreedyHitter.Result): Unit =
    judge("remedy") {
      val first = if (refToHit == null) {
        refToHit = toHit
        refChosen = greedy.combos
        val idx = new InvertedIndex(data)
        val want = refMups.filter(_.level <= w.lambda)
        Seq(
          Option.when(mups.mups != want)(s"DeepDiver(λ) found ${mups.mups.size} MUPs, expected ${want.size}"),
          toHit.find(p => p.level != w.lambda || idx.cov(p) >= tau).map(p => s"$p is not an uncovered level-λ pattern"),
          toHit.find(p => !greedy.combos.exists(c => p.matches(c))).map(p => s"$p is hit by no chosen combination"),
          Option.when(pinned && toHit.size != w.expected.toHit)(s"|M_λ| ${toHit.size} != pinned ${w.expected.toHit}"),
          Option.when(pinned && greedy.combos.size != w.expected.chosen)(
            s"${greedy.combos.size} combinations != pinned ${w.expected.chosen}"),
        ).flatten
      } else Nil
      l1(data) ++ first ++
        Option.when(toHit != refToHit)("M_λ differs from the first call's") ++
        Option.when(greedy.combos != refChosen)("chosen combinations differ from the first call's") ++
        count("deepdiver_lambda.nodes", mups.nodesVisited) ++
        count("deepdiver_lambda.cov_calls", mups.covCalls) ++
        count("to_hit", toHit.size.toLong) ++
        count("greedy.nodes", greedy.nodesExplored) ++
        count("greedy.combos", greedy.combos.size.toLong)
    }

  /** Problems that belong to no single operation. */
  def finish(): Unit =
    if (refMups == null || refToHit == null) { failed += 1; problems += "no assessment or remedy completed" }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Distance between the quartiles as a share of the median. */
  def iqrShare(xs: Seq[Double]): Double = (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c    => c.toString
  } + "\""
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"non-finite metric $d")
    d.toString
  }
  def bool(b: Boolean): String = b.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
