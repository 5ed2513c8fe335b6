#!/usr/bin/env python3
"""Run one workload of the PRoST benchmark.

    python3 prostbench/run.py --workload <query-mixed|load|query-vponly> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (and with it the repository's main sources)
with sbt when the sources changed since the last build, runs it in a JVM
of its own, relays its report and prints the result JSON as the last line
of standard output. All files it makes stay under `.bench_build/` and the
sbt `target/` directories of the checkout. The first run after a source
change also generates the WatDiv graph, which later runs reuse. Exits 0
only when every answer matched the DuckDB oracle.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "prostbench"
CLASSPATH = BENCH / "target" / "classpath.txt"
STAMP = BUILD / "build.stamp"

# Everything the benchmark program is compiled from.
SOURCES = [ROOT / "build.sbt", ROOT / "project" / "build.properties", ROOT / "src" / "main", ROOT / "jobs",
           BENCH / "build.sbt", BENCH / "project" / "build.properties", BENCH / "src"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
JVM_HEAP = "2g"


def fail(code, message):
    print(f"prostbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Build unless the sources are unchanged; returns their digest."""
    digest = source_hash()
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == digest:
        return digest
    offline = "-Dsbt.override.build.repos=true -Dsbt.offline=true -Dsbt.server.autostart=false"
    env = dict(os.environ, COURSIER_MODE="offline", SBT_OPTS=f"{os.environ.get('SBT_OPTS', '')} {offline}".strip())
    try:
        done = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                              cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if done.returncode != 0 or not CLASSPATH.exists():
        fail(3, f"build failed (sbt exit code {done.returncode})")
    BUILD.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(digest)
    return digest


def graph_dir(digest):
    """The directory of the generated graph of these sources; graphs of
    other sources are removed."""
    graphs = BUILD / "graph"
    graphs.mkdir(parents=True, exist_ok=True)
    for old in graphs.iterdir():
        if old.name != digest[:16]:
            shutil.rmtree(old, ignore_errors=True)
    (graphs / digest[:16]).mkdir(exist_ok=True)
    return graphs / digest[:16]


def run(args, digest):
    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    cmd = ["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.local.dir={work / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", CLASSPATH.read_text().strip(),
           "prostbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--graph-dir", str(graph_dir(digest)),
           "--results-dir", str(BUILD / "results")]
    # The program's own Spark settings apply, and Spark's scratch space stays
    # in the work directory: drop environment overrides of either.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "SPARK_LOCAL_DIRS")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(4, "interrupted")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timer = threading.Timer(RUN_TIMEOUT_S, lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = line[len("RESULT "):].strip()
            else:
                print(line, end="", flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        shutil.rmtree(work, ignore_errors=True)
    if result is None or code not in (0, 1):
        fail(5, f"benchmark run failed (exit code {code})")
    print(result, flush=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["query-mixed", "query-vponly", "load"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(2, f"no PRoST sources under {ROOT}: run from a checkout of the repository")
    sys.exit(run(args, build()))


if __name__ == "__main__":
    main()
