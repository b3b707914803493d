#!/usr/bin/env python3
"""DATAMARAN benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. On first use (or when any program or benchmark
source changed) it compiles the program's sources together with the benchmark's
code with sbt into .bench_build/, then runs one workload in a single JVM.
The last line of standard output is the JSON result; everything else goes to
standard error.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import threading

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("lake-distinct", "lake-rotated")
SOURCE_DIRS = ("src/main/scala", "perfbench/src", "perfbench/project")
SOURCE_FILES = ("perfbench/build.sbt",)

# Fixed heap and young-generation sizes make collections, and so the live
# heap sampled after each, repeat from run to run; an adaptive collector
# sizes the generations differently each time.
JVM_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-Xmn256m",
    "-XX:+UseParallelGC",
    "-XX:-UseAdaptiveSizePolicy",
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
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file the build compiles, so edits trigger a rebuild."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if x not in ("target", "project")]
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_child(cmd, **kw):
    """Run a child process to completion. If this process is told to stop,
    pass the signal on (killing the child if it lingers) and exit once it ended."""
    proc = subprocess.Popen(cmd, **kw)
    stopped = []

    def stop(signum, frame):
        stopped.append(signum)
        proc.terminate()
        killer = threading.Timer(20, proc.kill)
        killer.daemon = True
        killer.start()

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    if stopped:
        sys.exit(128 + stopped[0])
    return proc.returncode, out


def build():
    """Compile with sbt unless .bench_build already holds this source tree's build."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        log("program sources (src/main/scala) not found: run from the repository root")
        sys.exit(2)
    digest = source_digest()
    cp_file = os.path.join(BUILD, "classpath.txt")
    digest_file = os.path.join(BUILD, "digest.txt")
    if os.path.exists(cp_file) and os.path.exists(digest_file):
        with open(digest_file) as f:
            if f.read().strip() == digest:
                with open(cp_file) as g:
                    return g.read().strip()
    log("building the program and the benchmark with sbt ...")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    sbt = [
        "sbt", "--batch",
        "-Dsbt.log.noformat=true",
        "-Dsbt.supershell=false",
        "-Dsbt.server.autostart=false",
        f"-Dsbt.global.base={BUILD}/sbt-global",
        f"-Dsbt.boot.directory={BUILD}/sbt-boot",
        f"-Dsbt.ivy.home={BUILD}/ivy",
        "compile", "export Runtime/fullClasspath",
    ]
    code, out = run_child(sbt, cwd=BENCH, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or "[error]" in out:
        log(f"build failed (sbt exit code {code})")
        sys.exit(2)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(digest_file, "w") as f:
        f.write(digest + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    cp = build()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = [os.path.join(os.environ["JAVA_HOME"], "bin", "java")] if "JAVA_HOME" in os.environ else ["java"]
    cmd = java + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
                             "--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace", a.trace]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(BUILD, "spark", "local"))
    code, _ = run_child(cmd, cwd=ROOT, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
