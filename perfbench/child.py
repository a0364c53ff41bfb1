"""One pass of one workload in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED MODE, with MODE one of ``setup``
(import and report readiness only), ``plain`` or ``traced``.  run.py
starts it with ``src`` on PYTHONPATH and KMW_THREADS unset, and reads
the one JSON object it prints.

A fresh interpreter per pass matters: kmw's module-level lru caches make
a repeat in the same process nearly free.
"""

import sys
import time

#: The modules a user of each workload imports before the first call.
ENTRY_MODULES = {
    "scissors-sweep": ("kmw",),
    "symbol-suites": ("kmw", "kmw.suites"),
    "cli-offpath": ("kmw", "kmw.cli"),
}


def import_entry(workload: str) -> float:
    """Import the workload's entry modules; the monotonic time when done."""
    for name in ENTRY_MODULES[workload]:
        __import__(name)
    return time.monotonic()


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run every item once; times, digests and oracle verdicts."""
    import hashlib
    import json
    import resource
    import traceback

    import kmw
    import tracing
    import workloads

    caches = tracing.lru_caches()
    warm = {name: c.cache_info().currsize for name, c in caches.items()
            if c.cache_info().currsize}
    if warm:
        return {"error": f"kmw caches are not empty at start: {warm}"}

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    items = []
    for item in workloads.WORKLOADS[workload](seed):
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_item()
        try:
            raw = item.run()
        except Exception:  # an item that raises counts as failed; the pass goes on
            error = traceback.format_exc(limit=-3).strip()
        finally:
            if tracer is not None:
                tracer.end_item()
            seconds = time.perf_counter() - t0
            cpu = time.process_time() - c0
        digest = None
        if error is None:
            try:
                output = item.render(raw)
                digest = hashlib.sha256(
                    json.dumps(output, sort_keys=True).encode()).hexdigest()
                error = item.check(output)
            except Exception:  # malformed output fails the item, not the pass
                error = traceback.format_exc(limit=-3).strip()
        items.append({"name": item.name, "seconds": seconds, "cpu_s": cpu,
                      "digest": digest, "error": error})

    result = {
        "backend": "compiled" if getattr(kmw, "COMPILED_BACKEND", False) else "python",
        "items": items,
        "wall_s": sum(i["seconds"] for i in items),
        "cpu_s": sum(i["cpu_s"] for i in items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report = tracing.cache_report(caches)
        layers = tracer.layer_metrics()
        layers.update(tracing.hit_ratios(report))
        memos = tracing.finite_field_memos()
        layers["fields.memo_entries"] = sum(memos.values())
        result.update(layers=layers, caches=report, memos=memos, missing=missing,
                      census=dict(sorted(tracer.census.items())))
    return result


def main(argv: list) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    ready = import_entry(workload)
    import json

    if mode == "setup":
        result = {"ready": ready}
    else:
        result = run_pass(workload, seed, traced=(mode == "traced"))
        result["ready"] = ready
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
