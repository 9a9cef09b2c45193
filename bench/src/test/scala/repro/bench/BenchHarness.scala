package repro.bench

import repro.SparkSpec
import repro.core.CompressedData
import repro.core.mup.{DeepDiver, MupAlgorithm, PatternBreaker, PatternCombiner}
import repro.spark.{CoverageData, SparkCoverage}

/** Shared machinery for the benchmark suites: timing, table rendering, and
  * the scale knob.
  *
  * `BENCH_SCALE` env var: `quick` (n=20K sweeps, for smoke runs), `default`
  * (n=100K — the numbers recorded in EXPERIMENTS.md), `paper` (n=1M like the
  * paper; slow). Ranges that would blow up a cell beyond its time box at a
  * given scale are trimmed and the trimming is printed.
  */
trait BenchHarness extends SparkSpec {

  /** Dataset rows for the AirBnB sweeps at the current scale. */
  lazy val scaleN: Long = sys.env.getOrElse("BENCH_SCALE", "default") match {
    case "quick" => 20000L
    case "paper" => 1000000L
    case _       => 100000L
  }

  /** Calls timed per cell after one untimed warm-up call. */
  private val timedCalls = 3

  /** Run `body` once to warm up, then [[timedCalls]] more times; returns the
    * result and the median seconds of the timed calls. Every call must return
    * the same result.
    */
  def timed[A](body: => A): (A, Double) = {
    val warm = body
    val secs = Vector.fill(timedCalls) {
      val t0 = System.nanoTime()
      val a  = body
      val s  = (System.nanoTime() - t0) / 1e9
      assert(a == warm, "a repeated call returned a different result")
      s
    }
    (warm, secs.sorted.apply(timedCalls / 2))
  }

  /** Render an aligned table to stdout, with a marker line the harness can
    * grep for when assembling EXPERIMENTS.md.
    */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println(s"\n=== BENCH: $title ===")
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
    println(s"=== END: $title ===\n")
  }

  /** The three MUP identification algorithms under test. */
  val mupAlgos: Seq[MupAlgorithm] = Seq(PatternBreaker, PatternCombiner, DeepDiver)

  /** AirBnB-like data compressed through the Spark aggregation layer. */
  def airbnbData(n: Long, d: Int): CompressedData = {
    val df = CoverageData.airbnb(spark, n, d)
    SparkCoverage.collectCompressed(df, CoverageData.attrNames(d), CoverageData.airbnbCards(d))
  }

  /** BlueNile-like data compressed through the Spark aggregation layer. */
  def bluenileData(n: Long): CompressedData = {
    val df = CoverageData.bluenile(spark, n)
    SparkCoverage.collectCompressed(df, CoverageData.attrNames(7), CoverageData.bluenileCards)
  }

  def f2(x: Double): String = f"$x%.2f"
}
