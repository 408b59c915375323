#!/usr/bin/env python3
"""Benchmark entry point: builds the harness (once per source state) and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload rma-tic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --smoke

The harness is a Scala program (perfbench/src) compiled together with the
repository's sources by perfbench/build.sbt. It runs in one JVM with Spark
local[nproc]. Its stdout carries one `record:` line per workload (everything
measured, with provenance) and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.

`--smoke` is the self-test: every workload on small inputs, untraced and
traced. It checks that the output parses, that every metric named in
BENCHMARK.json is present with its unit, and that the correctness gate and
the replay-equality check ran and passed.

See perfbench/README.md for the workloads, metrics and rationale.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(HERE, "target", "scala-2.13", "classes")
STAMP = os.path.join(BUILD, "perfbench.stamp")
HEAP = "4g"
BUILD_TIMEOUT_S = 800
# The workloads that `--workload all` runs (Workload.All in the harness).
ALL_WORKLOADS = ("rma-tic", "oracle-search", "ti-baselines")

# Module opens that spark-submit adds on JDK 17 (the same list as build.sbt).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_home():
    """The Spark distribution: $SPARK_HOME, else the one spark-submit is in."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if submit:
        return os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    fail("no Spark distribution: set SPARK_HOME")


def sources():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties"),
             os.path.join(HERE, "log4j2.properties")]
    for r in roots:
        for d, _, fs in os.walk(r):
            files += [os.path.join(d, f) for f in fs]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build(digest):
    """Compiles with sbt unless the classes already match `digest`."""
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read() == digest:
        return
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    # Keep sbt's scratch files (server socket, temp dirs) inside the checkout.
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "-Dsbt.offline=true -Xmx2g") +
                       f" -Dsbt.server.autostart=false -Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    t0 = time.time()
    try:
        p = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "clean", "compile"],
                           cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s", 3)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed", 3)
    with open(STAMP, "w") as fh:
        fh.write(digest)
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except Exception:
        return "none (not a git checkout)"


def run_timeout(workload, seconds):
    """Seconds the harness may take: Spark start and the JIT warm-up, then per
    workload its set-ups, warm-up solve, timed window and traced probes. One
    workload at the default 15 s gets 155 s."""
    count = len(ALL_WORKLOADS) if workload == "all" else 1
    return 40 + count * (100 + seconds)


def run_jvm(args, digest, timeout):
    """Runs the harness; returns its stdout lines."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData"]
    cmd += [f"--add-opens={o}=ALL-UNNAMED" for o in OPENS]
    cmd += ["-Djdk.reflect.useDirectMethodHandle=false",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            f"-Dspark.local.dir={os.path.join(BUILD, 'spark-local')}",
            f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'spark-warehouse')}",
            "-cp", CLASSES + os.pathsep + os.path.join(spark_home(), "jars", "*"),
            "repro.perfbench.Main"] + args
    cmd += ["--provenance", "git_sha", git_sha(), "--provenance", "source_hash", digest,
            "--provenance", "heap", HEAP]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {timeout:.0f} s", 4)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail(f"harness exited with {p.returncode}", 5)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        fail("harness printed nothing", 5)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a JSON result: {lines[-1][:200]}", 5)
    return lines


def smoke(digest):
    """Self-test against BENCHMARK.json; exits 0 when everything holds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines = run_jvm(["--workload", "all", "--smoke", "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], digest, run_timeout("all", 1))
        result = json.loads(lines[-1])
        records = [json.loads(l[len("record: "):]) for l in lines if l.startswith("record: ")]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"trace {trace}: result keys {sorted(result)}")
        if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
            errors.append(f"trace {trace}: correct={result.get('correct')} failed={result.get('failed')} "
                          f"problems={[r.get('problems') for r in records]}")
        with open(os.path.join(BUILD, f"smoke-trace{trace}.out"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        missing = set(names) - {r["workload"] for r in records}
        if missing:
            errors.append(f"trace {trace}: no record for {sorted(missing)}")
        for r in records:
            if trace == 1 and r.get("replay_equal") is not True:
                errors.append(f"{r['workload']}: replay did not reproduce the program's solve")
            if trace == 0 and not r.get("solve_times_s"):
                errors.append(f"{r['workload']}: no timed solve")
        for w in names:
            for m in spec[key]:
                got = result["metrics"].get(f"{w}.{m['name']}")
                if got is None:
                    errors.append(f"{w}: metric {m['name']} missing (trace {trace})")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{w}: metric {m['name']} is {got}, want a number in {m['unit']}")
        print(f"perfbench smoke: trace {trace}: {len(result['metrics'])} metrics, "
              f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    for e in errors:
        print(f"perfbench smoke: FAIL {e}", file=sys.stderr)
    print(json.dumps({"smoke": "pass" if not errors else "fail", "errors": errors}))
    sys.exit(1 if errors else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on small inputs")
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the program's sources (src/main/scala) are missing: nothing to benchmark")
    if not a.smoke and not a.workload:
        fail("--workload is required")
    digest = source_hash()
    build(digest)
    if a.smoke:
        smoke(digest)
    lines = run_jvm(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                     "--trace", str(a.trace)], digest, run_timeout(a.workload, a.seconds))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
