#!/usr/bin/env python3
"""Coverage benchmark: times MUP identification and coverage enhancement
from a cached DataFrame to the answer, on one named workload.

    python3 covbench/run.py --workload airbnb-d14-remedy --seed 42 --seconds 30 --trace 0
    python3 covbench/run.py --workload all      # every workload, default seeds, summary table

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See covbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = {"bluenile-4m-scan": 7, "airbnb-d14-remedy": 42}

# Pinned run configuration, recorded with every result.
# A fixed, pre-touched heap and a small young generation keep call times
# steadier: no page faults after set-up, and allocation stays cache-resident.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-Xmn128m", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
             "-XX:-UsePerfData", "-Xss8m"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
THREADS = min(4, len(os.sched_getaffinity(0)))
PARTITIONS = THREADS
JVM_TIMEOUT = 170     # seconds, per JVM


def jvm(args, out_dir):
    """Run the benchmark JVM; returns its RESULT json."""
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_FLAGS + [f"-Djava.io.tmpdir={tmp}", "-cp", build.classpath(), "covbench.CovBench"]
           + args + ["--launch-ns", str(time.time_ns()), "--threads", str(THREADS),
                     "--partitions", str(PARTITIONS), "--out", out_dir])
    log = os.path.join(out_dir, "jvm.log")
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            stdout, _ = proc.communicate(timeout=JVM_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"benchmark JVM timed out after {JVM_TIMEOUT}s; see {log}")
    if proc.returncode != 0:
        sys.stderr.write(open(log).read()[-4000:])
        raise SystemExit(f"benchmark JVM failed with code {proc.returncode}")
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise SystemExit("benchmark JVM printed no RESULT line")


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except OSError:
        return None


def run_one(workload, seed, seconds, trace):
    stamp = build.build()
    out_dir = os.path.join(build.OUT, "runs", f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(out_dir, exist_ok=True)
    res = jvm(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
              out_dir)

    # Work counters must repeat exactly across runs of the same build and seed.
    counts_file = os.path.join(build.OUT, "counts", f"{stamp}-{workload}-seed{seed}.json")
    if os.path.isfile(counts_file):
        prev = json.load(open(counts_file))
        for k, v in res["counts"].items():
            if k in prev and prev[k] != v:
                res["correct"] = False
                res["problems"].append(f"{k} drifted across runs: {prev[k]} then {v}")
        prev.update(res["counts"])
        res["counts"] = prev
    os.makedirs(os.path.dirname(counts_file), exist_ok=True)
    with open(counts_file, "w") as fh:
        json.dump(res["counts"], fh, sort_keys=True)

    metrics = res["metrics"]
    info = dict(res["info"], counts=res["counts"], problems=res["problems"],
                config={"jvm_flags": JVM_FLAGS, "spark_master": f"local[{THREADS}]",
                        "shuffle_partitions": PARTITIONS, "git_rev": git_rev(), "source_stamp": stamp})
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump({"info": info, "metrics": metrics}, fh, indent=1, sort_keys=True)
    print("info " + json.dumps(info, sort_keys=True))
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, help="generator seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(build.ROOT, "src", "main", "scala")):
        raise SystemExit("covbench: src/main/scala not found; run from a full checkout of the repository")

    if a.workload != "all":
        seed = WORKLOADS[a.workload] if a.seed is None else a.seed
        res = run_one(a.workload, seed, a.seconds, a.trace)
        print(json.dumps(res))
        sys.exit(0 if res["correct"] and res["failed"] == 0 else 1)

    ok = True
    for w, seed in WORKLOADS.items():
        res = run_one(w, seed if a.seed is None else a.seed, a.seconds, a.trace)
        ok = ok and res["correct"] and res["failed"] == 0
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in sorted(res["metrics"].items()):
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
