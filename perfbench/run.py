#!/usr/bin/env python3
"""Plaque benchmark: build the harness if the sources changed, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mimics-mc --seed 1 --seconds 6 --trace 0

Workloads: mimics-mc and exact (see perfbench/README.md). The last
line of standard output is the JSON result. Build output, Spark scratch space
and per-run records (spans included) go to perfbench/target/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("mimics-mc", "exact")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700
HEAP = "3g"

# The module openings Spark's own launcher adds on Java 17.
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files(root):
    """Everything the build reads from the checkout, in a stable order."""
    bench = os.path.join(root, "perfbench")
    files = [os.path.join(bench, "build.sbt"), os.path.join(bench, "project", "build.properties")]
    for top in (os.path.join(root, "src", "main"), os.path.join(bench, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def digest(root, files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def build(bench, out, env, stamp):
    """Compile harness + main sources with sbt; cache the runtime classpath."""
    cp_file = os.path.join(out, "classpath.txt")
    stamp_file = os.path.join(out, "source.sha256")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(out, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=bench, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout)
        fail(f"build failed (sbt exit {res.returncode})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def git_sha(root):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("run from the repository root: src/main/scala/repro not found")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    out = os.path.join(bench, "target")
    env = dict(os.environ, SPARK_HOME=spark_home(), COURSIER_MODE="offline")
    files = source_files(root)
    stamp = digest(root, files)
    cp = build(bench, out, env, stamp)

    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SPARK_LOCAL_DIRS"] = os.path.join(out, "spark-local")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{HEAP}", f"-Xms{HEAP}", f"-Djava.io.tmpdir={tmp}", *JAVA_OPTS, "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(out, "runs"),
           "--git-sha", git_sha(root), "--source-sha", stamp]
    # Its own process group, so that a kill also reaches the JVMs it starts.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0 or not lines:
        fail(f"harness exit {proc.returncode}")
    result = json.loads(lines[-1])
    want = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
