#!/usr/bin/env python3
"""Compile the program (src/main/scala) and the benchmark (covbench/src)
into one class directory, with the Scala compiler that ships with Spark.

    python3 covbench/build.py        # prints the class directory

The output lives under .bench_build/covbench/ in the repository root and is
rebuilt only when a source file or the compiler changes.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "covbench")


def spark_home():
    """$SPARK_HOME, else the directory above the spark-submit on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if submit is None:
        raise SystemExit("build: set SPARK_HOME or put spark-submit on PATH")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


SPARK_JARS = os.path.join(spark_home(), "jars")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "covbench", "src")]


def scala_sources():
    files = []
    for top in SOURCE_DIRS:
        if not os.path.isdir(top):
            raise SystemExit(f"build: missing source directory {os.path.relpath(top, ROOT)}")
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def compiler_jars():
    names = sorted(os.listdir(SPARK_JARS))
    picked = [n for n in names if n.split("-2.13")[0] in ("scala-compiler", "scala-library", "scala-reflect")]
    if len(picked) != 3:
        raise SystemExit(f"build: scala compiler/library/reflect jars not found in {SPARK_JARS}")
    return [os.path.join(SPARK_JARS, n) for n in picked]


def classpath():
    """Runtime classpath: the compiled classes plus every Spark jar."""
    return os.path.join(OUT, "classes") + os.pathsep + os.path.join(SPARK_JARS, "*")


def build():
    """Compile if stale; returns the source stamp (a hash of every input)."""
    sources = scala_sources()
    h = hashlib.sha256()
    for f in sources + compiler_jars():
        h.update(os.path.relpath(f, ROOT).encode())
        if f.endswith(".scala"):
            with open(f, "rb") as fh:
                h.update(fh.read())
    stamp = h.hexdigest()[:16]
    stamp_file = os.path.join(OUT, "classes.stamp")
    classes = os.path.join(OUT, "classes")
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp and os.path.isdir(classes):
        return stamp
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler_jars()),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(SPARK_JARS, "*"), "-d", tmp] + sources
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"build: scalac failed with code {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return stamp


if __name__ == "__main__":
    build()
    print(os.path.join(OUT, "classes"))
