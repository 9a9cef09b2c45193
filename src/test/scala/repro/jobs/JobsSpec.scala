package repro.jobs

import repro.SparkSpec
import repro.core.Pattern

/** Smoke tests for the spark-submit entrypoint: run `CoverageJob.main`
  * in-process against the shared session (the job reuses it and must not
  * stop it) and sanity-check the printed report.
  */
class JobsSpec extends SparkSpec {

  private def captureOut(body: => Unit): String = {
    val buf = new java.io.ByteArrayOutputStream()
    Console.withOut(new java.io.PrintStream(buf))(body)
    buf.toString("UTF-8")
  }

  private def printedMups(out: String): Seq[Pattern] =
    out.linesIterator.map(_.trim).collect { case s if s.startsWith("MUP ") => Pattern.parse(s.drop(4)) }.toSeq

  // Named for the former COMPAS audit entrypoint; the audit is now
  // `CoverageJob dataset=compas tauRate=0.0015` (tau = 10, XX23 uncovered).
  test("CompasAuditJob prints the audit and leaves the shared session running") {
    spark.sparkContext // force init
    val out = captureOut(CoverageJob.main(Array("dataset=compas", "tauRate=0.0015")))
    assert(out.contains("n=6889 ") && out.contains("tau=10 "), out)
    assert(out.contains("  MUP XX23\n"), out)
    assert(!spark.sparkContext.isStopped, "job must not stop a pre-existing session")
  }

  test("CoverageJob runs each algorithm on a small airbnb sample") {
    for (algo <- Seq("deepdiver", "breaker", "combiner")) {
      val out = captureOut(CoverageJob.main(
        Array("dataset=airbnb", "n=2000", "d=6", "tauRate=0.005", s"algo=$algo")))
      assert(out.contains("mups="), s"algo=$algo output: $out")
      assert(!out.contains("lambda="), out)
      assert(!spark.sparkContext.isStopped)
    }
  }

  test("CoverageJob honors maxLevel") {
    val out = captureOut(CoverageJob.main(
      Array("dataset=airbnb", "n=2000", "d=10", "tauRate=0.005", "maxLevel=2")))
    assert(out.contains("mups="))
    assert(printedMups(out).nonEmpty && printedMups(out).forall(_.level <= 2), out)
  }

  test("CoverageJob with lambda prints combinations to collect") {
    val out = captureOut(CoverageJob.main(
      Array("dataset=airbnb", "n=2000", "d=8", "tauRate=0.01", "lambda=3")))
    assert(out.contains("input=") && out.contains("output="))
    assert(out.contains("  collect ["), out)
    assert(printedMups(out).forall(_.level <= 3), "maxLevel defaults to lambda")
    assert(!spark.sparkContext.isStopped)
  }

  test("jobs derive tau from the rows read, not the requested n (compas has 6,889)") {
    val mup = captureOut(CoverageJob.main(
      Array("dataset=compas", "n=100000", "tauRate=0.01")))
    assert(mup.contains("n=6889 ") && mup.contains("tau=68 "), mup)
    val enh = captureOut(CoverageJob.main(
      Array("dataset=compas", "n=100000", "tauRate=0.01", "lambda=2")))
    assert(enh.contains("n=6889 ") && enh.contains("tau=68 ") && enh.contains("lambda=2 input="), enh)
  }

  test("CoverageJob reads BlueNile's 116,300 rows when n is not given") {
    spark.sparkContext // force init
    val out = captureOut(CoverageJob.main(Array("dataset=bluenile", "maxLevel=1")))
    assert(out.contains("dataset=bluenile n=116300 "), out)
  }

  test("jobs reject unknown datasets") {
    val e = intercept[RuntimeException] {
      CoverageJob.main(Array("dataset=nope"))
    }
    assert(e.getMessage.contains("unknown dataset nope"), e.getMessage)
    for (algo <- Seq("deepdivr", "naive")) {
      val e = intercept[RuntimeException] {
        CoverageJob.main(Array("dataset=airbnb", "n=2000", "d=6", s"algo=$algo"))
      }
      assert(e.getMessage.contains(s"unknown algo $algo"), e.getMessage)
    }
  }

  test("CoverageJob rejects a misspelt or malformed argument and a lambda above d") {
    for (bad <- Seq("lamda=3", "lambda3")) {
      val e = intercept[IllegalArgumentException] {
        CoverageJob.main(Array("dataset=airbnb", "n=2000", "d=6", bad))
      }
      assert(e.getMessage.contains(s"unknown argument '$bad'"), e.getMessage)
      assert(e.getMessage.contains("key one of dataset, n, d, tauRate, algo, maxLevel, lambda"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException] {
      CoverageJob.main(Array("dataset=airbnb", "n=2000", "d=6", "lambda=7"))
    }
    assert(e.getMessage.contains("lambda=7 exceeds the dataset's d=6"), e.getMessage)
  }

  test("CoverageJob rejects a maxLevel below lambda") {
    val e = intercept[IllegalArgumentException] {
      CoverageJob.main(Array("dataset=airbnb", "n=2000", "d=6", "maxLevel=2", "lambda=3"))
    }
    assert(e.getMessage.contains("maxLevel 2 is below lambda 3"), e.getMessage)
  }

  test("CoverageJob rejects a bad tauRate, n, lambda, maxLevel or airbnb d by naming the key") {
    for ((bad, msg) <- Seq(
           "tauRate=NaN"       -> "tauRate=NaN must be a rate in [0, 1]",
           "tauRate=Infinity"  -> "tauRate=Infinity must be a rate in [0, 1]",
           "tauRate=-0.01"     -> "tauRate=-0.01 must be a rate in [0, 1]",
           "tauRate=1.5"       -> "tauRate=1.5 must be a rate in [0, 1]",
           "n=0"               -> "n=0 must be at least 1",
           "n=-5"              -> "n=-5 must be at least 1",
           "lambda=-1"         -> "lambda=-1 must not be negative",
           "maxLevel=-1"       -> "maxLevel=-1 must not be negative",
           "d=0"               -> "d=0 must be in 1..64",
           "d=65"              -> "d=65 must be in 1..64",
           "n=1e5"             -> "n=1e5 must be an integer",
           "lambda=two"        -> "lambda=two must be an integer",
           "tauRate="          -> "tauRate= must be a number")) {
      val e = intercept[IllegalArgumentException] {
        CoverageJob.main(Array("dataset=airbnb", "n=2000", "d=6", bad))
      }
      assert(e.getMessage.contains(msg), s"$bad: ${e.getMessage}")
    }
    // d is read only by airbnb; a rate of 0 is valid and gives τ = 1
    val out = captureOut(CoverageJob.main(Array("dataset=compas", "d=65", "tauRate=0", "maxLevel=1")))
    assert(out.contains("n=6889 ") && out.contains("tau=1 "), out)
  }
}
