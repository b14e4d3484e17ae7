#!/usr/bin/env python3
"""Cover benchmark: one run of one workload, from the root of a checkout.

    python3 coverbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source with sbt (once per source
tree; the classpath is cached under .bench_build/), starts one JVM that runs
the workload as a closed loop with one client (see Main.scala), turns its
event lines into metrics, checks every cover, and prints one JSON object as
the last line of standard output. A run report with every event, the run
environment and the metrics is written under .bench_build/coverbench/reports/.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
--scale shrinks every workload size, for smoke tests; guards apply only at 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "coverbench"
WORKLOADS = ("fringe-k5", "dist-k5")
PREFIX = "@@coverbench "
HEAP = "3g"
BUILD_LIMIT_S = 680  # with WALL_LIMIT_S, a first run stays under 900 s
# A run that is not done by then is killed and counted as a failed
# operation, so a regression shows as a failure, not as a hang. The
# slowest run, a traced dist-k5, takes about 90 s: the limit leaves room
# for the host to run it almost twice as slow.
WALL_LIMIT_S = 170
SBT_OPTS = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
            + str(Path.home() / ".sbt" / "repositories") + " -Dsbt.offline=true -Xmx2g")


class SetupError(Exception):
    """The checkout cannot be built or run; no result is printed."""


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q3) as statistics.quantiles(n=4) gives them; needs 2+ values."""
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def describe(xs):
    """Sample count, median and quartiles of one metric's samples in a run."""
    q1, q3 = quartiles(xs) if len(xs) > 1 else (xs[0], xs[0])
    return {"n": len(xs), "q1": q1, "median": median(xs), "q3": q3}


def source_files():
    roots = [ROOT / "src" / "main", ROOT / "jobs", ROOT / "project",
             BENCH / "src" / "main", BENCH / "project"]
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for r in roots:
        if r.is_dir():
            files += [p for p in r.rglob("*")
                      if p.is_file() and "target" not in p.relative_to(r).parts]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out, False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return proc.returncode, out, True
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    """(source digest, classpath, JVM options) of the benchmark, built with sbt if needed.

    The cached classpath is keyed by the source digest and owns its bytecode:
    sbt's class directories are copied under classes-<digest>/, because the
    next build of another source tree in this checkout overwrites them.
    """
    for need in (ROOT / "build.sbt", ROOT / "src" / "main" / "scala", BENCH / "build.sbt"):
        if not need.exists():
            raise SetupError(f"not a checkout of the program: {need.relative_to(ROOT)} is missing")
    digest = source_digest()
    cached = OUT / f"launch-{digest[:16]}.txt"
    if cached.exists() and not all(Path(p).exists() for p in cached.read_text().splitlines()[0].split(os.pathsep)):
        cached.unlink()  # a build directory was cleaned since
    if not cached.exists():
        if shutil.which("sbt") is None:
            raise SetupError("sbt is not on PATH")
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        env.setdefault("SBT_OPTS", SBT_OPTS)
        OUT.mkdir(parents=True, exist_ok=True)
        log = OUT / "build.log"
        with open(log, "wb") as f:
            code, _, timed_out = run_group(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeLaunch"], BUILD_LIMIT_S,
                cwd=BENCH, env=env, stdout=f, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        launch = BENCH / "target" / "launch.txt"
        if code != 0 or timed_out or not launch.exists():
            tail = log.read_text(errors="replace").splitlines()[-20:]
            raise SetupError("build failed:\n" + "\n".join(tail))
        cp, *opts = launch.read_text().splitlines()
        owned = OUT / f"classes-{digest[:16]}"
        shutil.rmtree(owned, ignore_errors=True)
        entries = []
        for i, entry in enumerate(cp.split(os.pathsep)):
            if Path(entry).is_dir():
                copy = owned / f"{i}-{Path(entry).name}"
                shutil.copytree(entry, copy)
                entry = str(copy)
            entries.append(entry)
        # Written last, so an interrupted copy leaves no cache entry behind.
        cached.write_text("\n".join([os.pathsep.join(entries), *opts]) + "\n")
    lines = cached.read_text().splitlines()
    return digest, lines[0], lines[1:]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def parse_events(stdout):
    return [json.loads(line[len(PREFIX):]) for line in stdout.splitlines()
            if line.startswith(PREFIX)]


def guard_for(workload, seed, scale):
    if scale != 1.0:
        return None
    guards = json.loads((BENCH / "guards.json").read_text())
    return guards.get(workload, {}).get(str(seed))


END_TO_END = {"cover_s": "s", "check_s": "s", "cover_size": "count", "setup_s": "s",
              "ok_ratio": "ratio"}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


def summarise(events, trace, guard, exit_note=None):
    """Turn one run's events into (correct, attempted, failed, metrics, failures).

    An operation fails on an exception, a cover that differs from the guard,
    from the sequential reference or from the run's first cover, or a check
    that rejects the cover (then every operation that returned it fails).
    A run that did not finish (killed at the wall limit, or the JVM died)
    adds one failed operation.
    """
    by = {}
    for e in events:
        by.setdefault(e["event"], []).append(e)
    ops = by.get("op", [])
    failures = [(o["op"], o["reason"]) for o in ops if not o["ok"]]
    ok = [o for o in ops if o["ok"]]
    first = ok[0]["digest"] if ok else None
    identity = by.get("identity", [None])[0]
    checked = by.get("check", [None])[0]
    bad = set()
    for o in ok:
        why = None
        if guard and (o["cover_size"], o["digest"]) != (guard["cover_size"], guard["digest"]):
            why = f"guard_mismatch: {o['cover_size']}/{o['digest']} vs {guard['cover_size']}/{guard['digest']}"
        elif identity and o["digest"] != identity["digest"]:
            why = f"identity_mismatch: {o['digest']} vs sequential {identity['digest']}"
        elif o["digest"] != first:
            why = f"nondeterministic_cover: {o['digest']} vs {first}"
        elif checked is None:
            why = "unchecked: the run ended before the check"
        elif not checked["ok"]:
            why = checked["reason"]
        if why:
            failures.append((o["op"], why))
            bad.add(o["op"])
    ok = [o for o in ok if o["op"] not in bad]
    attempted = len(ops)
    if "done" not in by:
        attempted += 1
        failures.append((None, exit_note or "run_incomplete"))
    failed = len(failures)
    attempted = max(attempted, 1)

    timed = [o for o in ok if o["phase"] == "timed"]
    setup = by.get("setup", [None])[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if not trace:
        if timed:
            put("cover_s", median([o["cover_s"] for o in timed]), "s")
            put("cover_size", timed[0]["cover_size"], "count")
            if checked and checked["ok"]:
                put("check_s", median(checked["check_s"]), "s")
        if setup:
            put("setup_s", setup["spark_start_s"] + median(setup["generate_s"]), "s")
        put("ok_ratio", (attempted - failed) / attempted, "ratio")
    else:
        units = per_layer_units()
        traced = [o for o in ok if o["phase"] == "traced"]
        if setup:
            put("graphgen.generate_s", median(setup["generate_s"]), "s")
            put("graphgen.edges", setup["edges"], "count")
        layers = [o["layers"] for o in traced] + ([checked["layers"]] if checked and checked["ok"] else [])
        for name in sorted({n for l in layers for n in l}):
            put(name, median([l[name] for l in layers if name in l]), units.get(name, ""))
        if traced and timed:
            put("trace.overhead_s", median([o["cover_s"] for o in traced])
                - median([o["cover_s"] for o in timed]), "s")
    return failed == 0, attempted, failed, metrics, failures


def samples(events):
    """The timed samples behind cover_s, check_s and setup's generate_s."""
    ops = [e for e in events if e["event"] == "op" and e["ok"] and e["phase"] == "timed"]
    check = next((e for e in events if e["event"] == "check" and e["ok"]), {})
    setup = next((e for e in events if e["event"] == "setup"), {})
    return {"cover_s": [o["cover_s"] for o in ops], "check_s": check.get("check_s", []),
            "generate_s": setup.get("generate_s", [])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0)
    a = ap.parse_args(argv)

    try:
        digest, cp, jvm_opts = build()
    except SetupError as e:
        print(f"coverbench: {e}", file=sys.stderr)
        return 2

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}" + ("" if a.scale == 1.0 else f"-scale{a.scale}")
    for d in ("reports", "logs", "spans", "tmp", "spark-local"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{tag}.json"
    log = OUT / "logs" / f"{tag}.log"
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss64m",
           f"-Djava.io.tmpdir={OUT / 'tmp'}", *jvm_opts, "-cp", cp,
           "repro.coverbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--scale", str(a.scale),
           "--local-dir", str(OUT / "spark-local"), "--spans-out", str(spans)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
    started = time.time()
    with open(log, "wb") as err:
        code, out, timed_out = run_group(cmd, WALL_LIMIT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                         stderr=err, stdin=subprocess.DEVNULL)
    wall = time.time() - started
    events = parse_events(out.decode(errors="replace"))
    note = (f"wall_limit: killed after {WALL_LIMIT_S} s" if timed_out
            else f"jvm_exit: code {code}" + (" (executor out of memory)" if code == 52 else ""))
    guard = guard_for(a.workload, a.seed, a.scale)
    correct, attempted, failed, metrics, failures = summarise(events, a.trace, guard, note)

    wanted = set(END_TO_END) if not a.trace else set(per_layer_units()) or set(metrics)
    complete = wanted <= set(metrics)
    info = next((e for e in events if e["event"] == "info"), {})
    report = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace, "seconds": a.seconds,
        "scale": a.scale, "git_sha": git_sha(), "source_digest": digest,
        "jvm": {"cmd_heap": HEAP, "java_version": info.get("java_version"),
                "max_heap_mb": info.get("max_heap_mb"), "cores": info.get("cores")},
        "spark_master": info.get("master"), "spark_version": info.get("spark_version"),
        "params": info.get("params"),
        "graph": next(({"n": e["n"], "m": e["m"]} for e in events
                       if e["event"] == "op" and e["ok"]), None),
        "host_cores": os.cpu_count(), "wall_s": wall, "exit_code": code,
        "timed_out": timed_out, "guard": guard, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures,
        "missing_metrics": sorted(wanted - set(metrics)), "metrics": metrics,
        "samples": {name: describe(xs) for name, xs in samples(events).items() if xs},
        "spans_file": str(spans.relative_to(ROOT)) if a.trace else None,
        "log_file": str(log.relative_to(ROOT)), "events": events,
    }
    report_path = OUT / "reports" / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"coverbench: {a.workload} seed={a.seed} trace={a.trace} wall={wall:.1f}s "
          f"failed={failed}/{attempted} report={report_path.relative_to(ROOT)}", file=sys.stderr)
    for op, why in failures:
        print(f"coverbench: failed op {op}: {why}", file=sys.stderr)
    print(json.dumps({"correct": correct and complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
