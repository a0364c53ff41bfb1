#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of kmw.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``scissors-sweep``, ``symbol-suites``, ``cli-offpath`` or ``all``.
Each pass runs every item of the workload once in a fresh interpreter
(child.py) with KMW_THREADS unset, so everything runs serially in one
process and starts from empty caches.  Passes repeat, inputs unchanged,
until the next one would end after S seconds; there is always at least
one.  With ``--trace 1`` plain and traced passes alternate.

A human-readable report goes to stderr.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  ``--workload all`` measures every workload
and reports both kinds of metric for each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: End-to-end metrics, from set-up probes and plain passes: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "slowest_item_s": "s",
}
#: Set-up-only interpreter starts per run, besides one per pass.
SETUP_PROBES = 5
#: A run must finish within 180 s; passes stop starting well before.
RUN_LIMIT_S = 170.0


def provenance() -> dict:
    """What the numbers depend on besides the code under test."""
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "kmw_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("KMW_")},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KMW_THREADS", None)
    # imports read cached bytecode, as a user's do, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(env: dict, workload: str, seed: int, mode: str, timeout: float):
    """Start one child and wait for it: (result, None) or (None, why it failed)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), workload, str(seed), mode],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} pass did not end within {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, f"{mode} pass printed no result: {lines[-1][:200]}"
    if "error" in result:
        return None, f"{mode} pass refused: {result['error']}"
    result["mode"] = mode
    result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = time.monotonic() - start
    return result, None


def tally(passes: list, failed_passes: int) -> tuple[int, int, list]:
    """Attempted and failed items over all passes.  An item fails on an
    oracle mismatch, an exception, or output that differs from the first
    pass (the same seed must give the same bytes)."""
    attempted = failed = 0
    reasons = []
    first: dict = {}
    for p in passes:
        for item in p["items"]:
            attempted += 1
            why = item["error"]
            if why is None and first.setdefault(item["name"], item["digest"]) != item["digest"]:
                why = f"output differs between {p['mode']} passes of one seed"
            if why is not None:
                failed += 1
                reasons.append(f"{item['name']}: {why}")
    per_pass = len(passes[0]["items"]) if passes else 1
    return attempted + failed_passes * per_pass, failed + failed_passes * per_pass, reasons


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """All passes of one run, with the metrics drawn from them."""
    env = child_env()
    start = time.monotonic()
    notes: list = []
    # the first start after a checkout writes bytecode; keep it out of setup_s
    spawn(env, workload, seed, "setup", 60)
    setups = []
    for _ in range(SETUP_PROBES):
        result, why = spawn(env, workload, seed, "setup", 60)
        if result is None:
            notes.append(why)
        else:
            setups.append(result["setup_s"])

    modes = ("plain", "traced") if trace else ("plain",)
    passes: list = []
    failed_passes = 0
    deadline = time.monotonic() + seconds
    while True:
        mode = modes[len(passes) % len(modes)]
        result, why = spawn(env, workload, seed, mode,
                            max(start + RUN_LIMIT_S - time.monotonic(), 1.0))
        if result is None:
            notes.append(why)
            failed_passes += 1
            break
        passes.append(result)
        next_mode = modes[len(passes) % len(modes)]
        same = [p["elapsed_s"] for p in passes if p["mode"] == next_mode]
        expected = statistics.median(same) if same else result["elapsed_s"]
        now = time.monotonic()
        if len(passes) >= len(modes) and now + expected > deadline:
            break
        if now + expected > start + RUN_LIMIT_S - 5:
            break

    attempted, failed, reasons = tally(passes, failed_passes)
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = sorted((p for p in passes if p["mode"] == "traced"), key=lambda p: p["wall_s"])
    e2e, layers = {}, {}
    if plain:
        setups += [p["setup_s"] for p in passes]
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "slowest_item_s": statistics.median(
                max(i["seconds"] for i in p["items"]) for p in plain),
        }
    # per-layer numbers come from one traced pass (the median by wall
    # time), so its self times and the unattributed rest add up exactly
    chosen = traced[(len(traced) - 1) // 2] if traced else {}
    if traced and plain:
        layers = dict(chosen["layers"])
        attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers["trace.wall_s"] = chosen["wall_s"]
        layers["trace.unattributed_s"] = chosen["wall_s"] - attributed
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / e2e["wall_s"])
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "notes": notes,
        "backends": sorted({p["backend"] for p in passes}),
        "passes": {m: sum(p["mode"] == m for p in passes) for m in modes},
        "end_to_end": e2e,
        "per_layer": layers,
        "census": chosen.get("census", {}),
        "caches": chosen.get("caches", {}),
        "memos": chosen.get("memos", {}),
        "missing": chosen.get("missing", []),
        "items": [{k: i[k] for k in ("name", "seconds", "error")}
                  for i in (plain[len(plain) // 2]["items"] if plain else [])],
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def report(run: dict, out=sys.stderr) -> None:
    """Every metric by name with its unit, and what went wrong if anything."""
    print(f"== {run['workload']}  seed {run['seed']}  backend {','.join(run['backends'])}  "
          f"passes {run['passes']}  items {run['attempted']}  failed {run['failed']}  "
          f"error_rate {run['failed'] / max(run['attempted'], 1):.4f}", file=out)
    units = dict(END_TO_END, **tracing.metric_units())
    for name, value in list(run["end_to_end"].items()) + list(run["per_layer"].items()):
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<36} {shown} {units[name]}", file=out)
    for key, (calls, entries, seconds) in run["census"].items():
        print(f"  census {key:<32} calls {calls:>6}  entries {entries:>9}  {seconds:.4f} s",
              file=out)
    for name, info in run["caches"].items():
        if info["base"]:
            print(f"  cache {name:<40} hit ratio {info['hit_ratio']:.3f} of {info['base']}",
                  file=out)
    if run["memos"]:
        print(f"  FiniteField memo entries {run['memos']}", file=out)
    if run["missing"]:
        print(f"  not traced, absent from kmw: {', '.join(run['missing'])}", file=out)
    for line in run["notes"] + run["reasons"][:10]:
        print(f"  FAIL {line}", file=out)


def _stop(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="also write every pass's details and the provenance as JSON")
    ns = parser.parse_args(argv)
    if ns.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "kmw" / "__init__.py").is_file():
        print(f"perfbench: no kmw sources under {SRC}; run from a kmw checkout",
              file=sys.stderr)
        return 2
    threads = os.environ.get("KMW_THREADS", "")
    try:
        parallel = int(threads) > 1
    except ValueError:  # kmw reads anything else as one worker
        parallel = False
    if parallel:
        print(f"perfbench: KMW_THREADS={threads}: the benchmark compares serial runs "
              "on one backend; unset KMW_THREADS", file=sys.stderr)
        return 2

    info = provenance()
    print(f"perfbench provenance {json.dumps(info)}", file=sys.stderr)
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    runs = []
    for name in names:
        run = measure(name, ns.seed, ns.seconds, bool(ns.trace))
        report(run)
        runs.append(run)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as handle:
            json.dump({"provenance": info, "runs": runs}, handle, indent=1)

    correct = all(r["correct"] for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if ns.workload == "all":
        summary["workloads"] = {
            r["workload"]: with_units(dict(r["end_to_end"], **r["per_layer"]),
                                      dict(END_TO_END, **tracing.metric_units()))
            for r in runs
        }
    else:
        run = runs[0]
        if ns.trace:
            summary["metrics"] = with_units(run["per_layer"], tracing.metric_units())
        else:
            summary["metrics"] = with_units(run["end_to_end"], END_TO_END)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
