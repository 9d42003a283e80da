#!/usr/bin/env python3
"""Host-time benchmark of the Q-Graph reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source with sbt when the sources
changed since the last build (outputs under .bench_build/ and the usual sbt
target/ directories), then runs one workload in one JVM. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("engine-trace", "replay")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every file the build reads, so a changed program is rebuilt."""
    h = hashlib.sha256()
    inputs = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
              HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        inputs += sorted(p for p in d.rglob("*") if p.is_file())
    for p in inputs:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Returns the runtime classpath, compiling with sbt if needed."""
    stamp = source_stamp()
    cp_file, stamp_file = BUILD / "classpath", BUILD / "stamp"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    BUILD.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"build failed (sbt exit {proc.returncode})")
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(stamp)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no program sources under {ROOT}; run from the root of a full checkout")
    classpath = build()

    out = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           # Points the program's trace cache at a directory that must still
           # be absent when the run ends: no trace is read from or written to
           # a cache.
           f"-Dqgraph.trace.dir={out / 'trace-cache'}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark"))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for p in out.glob("spans-*.jsonl"):
            shutil.move(str(p), str(BUILD / p.name))
        shutil.rmtree(out, ignore_errors=True)
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")


if __name__ == "__main__":
    main()
