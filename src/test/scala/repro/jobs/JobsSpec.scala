package repro.jobs

import repro.SparkSpec

/** Smoke tests for the spark-submit entrypoints: run each main in-process
  * against the shared session (JobEnv reuses it and must not stop it) and
  * sanity-check the printed report.
  */
class JobsSpec extends SparkSpec {

  private def captureOut(body: => Unit): String = {
    val buf = new java.io.ByteArrayOutputStream()
    Console.withOut(new java.io.PrintStream(buf))(body)
    buf.toString("UTF-8")
  }

  test("CompasAuditJob prints the audit and leaves the shared session running") {
    spark.sparkContext // force init
    val out = captureOut(CompasAuditJob.main(Array.empty))
    assert(out.contains("rows=6889"))
    assert(out.contains("widowed Hispanics: 2 (recidivists: 2)"))
    assert(out.contains("MUP "))
    assert(!spark.sparkContext.isStopped, "job must not stop a pre-existing session")
  }

  test("MupIdentificationJob runs each algorithm on a small airbnb sample") {
    for (algo <- Seq("deepdiver", "breaker", "combiner")) {
      val out = captureOut(MupIdentificationJob.main(
        Array("dataset=airbnb", "n=2000", "d=6", "tauRate=0.005", s"algo=$algo")))
      assert(out.contains("mups="), s"algo=$algo output: $out")
      assert(!spark.sparkContext.isStopped)
    }
  }

  test("MupIdentificationJob honors maxLevel") {
    val out = captureOut(MupIdentificationJob.main(
      Array("dataset=airbnb", "n=2000", "d=10", "tauRate=0.005", "maxLevel=2")))
    assert(out.contains("mups="))
  }

  test("CoverageEnhancementJob prints combinations to collect") {
    val out = captureOut(CoverageEnhancementJob.main(
      Array("dataset=airbnb", "n=2000", "d=8", "tauRate=0.01", "lambda=3")))
    assert(out.contains("input=") && out.contains("output="))
    assert(!spark.sparkContext.isStopped)
  }

  test("jobs derive tau from the rows read, not the requested n (compas has 6,889)") {
    val mup = captureOut(MupIdentificationJob.main(
      Array("dataset=compas", "n=100000", "tauRate=0.01")))
    assert(mup.contains("n=6889 ") && mup.contains("tau=68 "), mup)
    val enh = captureOut(CoverageEnhancementJob.main(
      Array("dataset=compas", "n=100000", "tauRate=0.01", "lambda=2")))
    assert(enh.contains("n=6889 ") && enh.contains("tau=68 "), enh)
  }

  test("jobs reject unknown datasets") {
    intercept[RuntimeException] {
      MupIdentificationJob.main(Array("dataset=nope"))
    }
    for (algo <- Seq("deepdivr", "naive")) {
      val e = intercept[RuntimeException] {
        MupIdentificationJob.main(Array("dataset=airbnb", "n=2000", "d=6", s"algo=$algo"))
      }
      assert(e.getMessage.contains(s"unknown algo $algo"), e.getMessage)
    }
  }
}
