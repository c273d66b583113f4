#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  It builds the phase runner
(perfbench/main.exe) and the daemon (bin/cgx.exe) with dune, then runs
the workload's phases -- sim and churn -- as separate processes, each
for half of --seconds in two quarter-length halves, alternating: the
workload's own phase first, then the other one, so that every
end-to-end metric is measured in every workload.  A traced run adds the serve phase (a cgx serve
daemon driven over its socket) as a third phase.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 it carries the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer ones.  See README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

PHASE_OF = {"sim-long": "sim", "graph-churn": "churn"}
# Names of the phases in per-layer metrics (obs.trace_overhead.<name>).
# The serve phase runs in traced runs only: see README.md.
LABEL = {"sim": "sim-long", "churn": "graph-churn", "serve": "serve-probe"}
# Share of --seconds each phase measures for.  On a shared 2-core VM a
# metric needs about 20 s per run to hold its spread under its bound, so
# sim and churn share a run evenly.
SHARE = {"sim": 0.5, "churn": 0.5}
# A traced run measures every phase twice, untraced and traced, and adds
# the serve probe; its per-layer metrics have no bound, so each phase
# gets a quarter of --seconds, which keeps the run near 80 s.
TRACE_SHARE = {"sim": 0.25, "churn": 0.25, "serve": 0.25}
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CGX = os.path.join("_build", "default", "bin", "cgx.exe")
RUN_DIR = ".perfbench_run"


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log("error: " + msg)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(RUN_DIR, "cache")))
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cgx.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Kill whatever is left of a phase's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_phase(phase, seed, seconds, trace):
    cmd = [EXE, "--phase", phase, "--seed", str(seed), "--seconds", "%.3f" % seconds,
           "--trace", str(trace), "--cgx", CGX]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        fail("phase %s timed out" % phase)
    finally:
        stop_group(p.pid)
    if p.returncode != 0:
        fail("phase %s exited with %d" % (phase, p.returncode))
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("phase %s printed no result" % phase)


def run_phases(workload, seed, seconds, trace):
    """The workload's own phase first, then the other one, then the
    serve probe."""
    own = PHASE_OF[workload]
    order = [own] + [p for p in ("sim", "churn") if p != own] + ["serve"]
    return {p: run_phase(p, seed, seconds * TRACE_SHARE[p], trace) for p in order}


def run_halves(workload, seed, seconds):
    """Each phase as two half-length processes, alternating (own, other,
    own, other), merged into one phase result.  The host's fast and slow
    spells last seconds to tens of seconds; two windows half a run apart
    average over more of them than one window of the same length."""
    own = PHASE_OF[workload]
    other = "churn" if own == "sim" else "sim"
    halves = {own: [], other: []}
    for p in (own, other, own, other):
        halves[p].append(run_phase(p, seed, seconds * SHARE[p] / 2, 0))
    merged = {}
    for p, (a, b) in halves.items():
        merged[p] = {
            "setup_s": (a["setup_s"] + b["setup_s"]) / 2,
            "attempted": a["attempted"] + b["attempted"],
            "failed": a["failed"] + b["failed"],
            "wrong": a["wrong"] + b["wrong"],
            "rss_mb": max(a["rss_mb"], b["rss_mb"]),
            "host": a["host"],
            "e2e": {k: [(v[0] + b["e2e"][k][0]) / 2, v[1]] for k, v in a["e2e"].items()},
        }
    return merged


def wilson_upper(failed, attempted, z=1.959964):
    """Upper end of the 95% Wilson score interval of a failure rate:
    never 0, and it shrinks as more operations succeed."""
    n = max(1, attempted)
    p = failed / n
    centre = p + z * z / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return min(1.0, (centre + spread) / (1 + z * z / n))


def declared(kind):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def pick(kind, available):
    metrics = {}
    for name, unit in declared(kind):
        if name not in available:
            fail("metric %s was not measured" % name)
        value, got_unit = available[name]
        if got_unit != unit or value is None or not math.isfinite(value):
            fail("metric %s: bad value %r %s" % (name, value, got_unit))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def host_line(phases):
    host = dict(next(iter(phases.values()))["host"])
    try:
        flambda = subprocess.run(["ocamlopt", "-config-var", "flambda"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() == "true"
    except (OSError, subprocess.TimeoutExpired):
        flambda = None
    host["flambda"] = flambda
    host["loadavg_1m_end"] = os.getloadavg()[0]
    return json.dumps({"host": host})


def main_run(args):
    workload = args.workload
    own = PHASE_OF[workload]
    if args.trace == 0:
        phases = run_halves(workload, args.seed, args.seconds)
        available = {}
        for ph in phases.values():
            available.update({k: tuple(v) for k, v in ph["e2e"].items()})
        mine = phases[own]
        available["setup_s"] = (mine["setup_s"], "s")
        available["error_rate"] = (wilson_upper(mine["failed"], mine["attempted"]), "ratio")
        available["peak_rss_mb"] = (mine["rss_mb"], "MB")
        metrics = pick("end_to_end", available)
    else:
        # Same phases untraced, then traced: the ratio of their headline
        # times is the tracing overhead.
        plain = run_phases(workload, args.seed, args.seconds, 0)
        phases = run_phases(workload, args.seed, args.seconds, 1)
        available = {}
        for name, ph in phases.items():
            available.update({k: tuple(v) for k, v in ph["layers"].items()})
            available["obs.trace_overhead." + LABEL[name]] = (
                ph["headline_s"] / plain[name]["headline_s"], "ratio")
        mine = phases[own]
        metrics = pick("per_layer", available)
        phases = dict(phases, **{"plain-" + k: v for k, v in plain.items()})
    wrong = sum(ph["wrong"] for ph in phases.values())
    for name, m in metrics.items():
        log("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print(host_line(phases))
    print(json.dumps({"correct": wrong == 0, "attempted": mine["attempted"],
                      "failed": mine["failed"], "metrics": metrics}), flush=True)


def self_check():
    """Injected failures are counted, and every workload runs end to end
    at a small size with every declared metric present."""
    r = subprocess.run([EXE, "--self-check"], stdout=sys.stderr, stderr=sys.stderr)
    ok = r.returncode == 0
    for workload in PHASE_OF:
        for trace in (0, 1):
            cmd = [sys.executable, sys.argv[0], "--workload", workload, "--seed", "1",
                   "--seconds", "2", "--trace", str(trace), "--no-build"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            try:
                res = json.loads(p.stdout.strip().splitlines()[-1])
                good = p.returncode == 0 and res["correct"] and res["attempted"] >= 1
            except (IndexError, ValueError, KeyError):
                good = False
            log("self-check smoke %-12s trace=%d %s" % (workload, trace, "ok" if good else "FAILED"))
            ok = ok and good
    log("self-check " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(PHASE_OF))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--no-build", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the root of a checkout (no BENCHMARK.json here)")
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = float(json.load(f)["run_seconds"])
    os.makedirs(RUN_DIR, exist_ok=True)
    if not args.no_build:
        build()
    if args.self_check:
        self_check()
    if args.workload is None:
        fail("--workload is required")
    main_run(args)


if __name__ == "__main__":
    main()
