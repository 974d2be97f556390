"""One workload in its own process: ``worker.py MODE WORKLOAD SEED``.

MODE is ``probe`` (set up, report when ready, exit), ``measure`` (set up,
then run the workload's fixed number of whole passes over the op list,
untraced) or ``trace`` (one pass untraced, then the same pass traced).
Prints one JSON object on stdout. ``run.py`` starts this.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

from common import ROOT, SRC, WORKLOADS, digest

MIN_OPS = 100  # ops per pass, so that ten lie beyond p90
REFERENCE_ITEMS = 1000
# The reference work's time at the reference speed: a round figure near
# its time on a 2-vCPU host (Python 3.11) in fast phases. Measured times
# are scaled to this speed.
REFERENCE_S = 1.0e-3


def _import_dtry():
    sys.path.insert(0, str(SRC))
    import dtry
    import dtry.cli

    if not os.path.realpath(dtry.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"dtry imported from {dtry.__file__}, not from {SRC}")
    return dtry


def _call(op):
    """Run one op; return (output, exception, seconds)."""
    start = time.perf_counter()
    try:
        out, exc = op.run(), None
    except (Exception, SystemExit) as caught:  # a failed op, judged below
        out, exc = None, caught
    return out, exc, time.perf_counter() - start


def _judge(op, out, exc, tally):
    tally["attempted"] += 1
    if op.passes(out, exc):
        return
    tally["failed"] += 1
    if op.hostile:
        tally["hostile_failed"][op.hostile] = tally["hostile_failed"].get(op.hostile, 0) + 1
    else:
        why = "output differs" if exc is None else f"{type(exc).__name__}: {exc}"
        detail = f"{op.kind}: {why}"
        if len(tally["unexpected"]) < 10:
            tally["unexpected"].append(detail[:300])


def _settle():
    """Collect garbage and freeze what survives, outside the timed ops.

    The inputs and other state of the benchmark stay out of the
    collector's way, so the collections an op triggers cost what they
    would in a process that holds only that op's data.
    """
    gc.collect()
    gc.freeze()


def _tally():
    return {"attempted": 0, "failed": 0, "hostile_failed": {}, "unexpected": []}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_s():
    """Seconds one run of a fixed piece of pure-Python work takes right now.

    The work is of the program's kind (tuples, strings, a dict, a sort)
    and touches no ``dtry`` code, so its time follows only the speed the
    host gives this process at the moment.
    """
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ITEMS):
        key = ("sec", str(i % 37), str(i))
        table[key] = ".".join(key)
    sorted(table)
    return time.perf_counter() - start


def measure(ops, passes):
    """Run ``passes`` whole passes; each op's time is its median scaled time.

    Shared hosts run all code 1.3 to 2 times slower for phases of seconds
    to minutes. So the reference work runs between every two ops, and an
    op's time is scaled by REFERENCE_S over the mean of the reference
    times just before and just after it: the time the op would take at
    the reference speed. The median over passes drops the runs in which
    the reference or the op was interrupted. A fixed pass count gives every op the same
    number of tries on every commit, and whole passes keep the mix of ops
    the same in every run.
    """
    if len(ops) < MIN_OPS:
        raise ValueError(f"a pass has {len(ops)} ops; percentiles need at least {MIN_OPS}")
    started = time.monotonic()
    times = [[] for _ in ops]
    busy = references = 0.0
    tally = _tally()
    for _ in range(passes):
        _settle()
        before = reference_s()
        for i, op in enumerate(ops):
            out, exc, dt = _call(op)
            after = reference_s()
            times[i].append(dt * 2 * REFERENCE_S / (before + after))
            busy += dt
            references += after
            before = after
            _judge(op, out, exc, tally)
    per_op = [statistics.median(t) for t in times]
    cuts = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        **tally,
        "passes": passes,
        "wall_s": time.monotonic() - started,
        "busy_s": busy,
        "reference_mean_s": references / (passes * len(ops)),
        "scaled_s": sum(per_op),
        "entries": sum(op.entries for op in ops),
        "latency_p50_ms": cuts[4] * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_pass(ops):
    _settle()
    digests, busy = [], 0.0
    tally = _tally()
    for op in ops:
        out, exc, dt = _call(op)
        busy += dt
        digests.append(f"raised {type(exc).__name__}" if exc is not None else digest(out))
        _judge(op, out, exc, tally)
    return digests, busy, tally


def trace(ops, dtry):
    from tracing import Tracer

    plain, plain_busy, _ = _run_pass(ops)
    tracer = Tracer()
    with tracer.installed(dtry):
        traced, traced_busy, tally = _run_pass(ops)
    stats, insert_entries = tracer.reduce()
    return {
        **tally,
        "outputs_match": plain == traced,
        "spans": len(tracer.span_name),
        "stats": stats,
        "insert_entries": insert_entries,
        "overhead_ratio": traced_busy / plain_busy,
    }


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode not in ("probe", "measure", "trace") or workload not in WORKLOADS:
        raise SystemExit(f"usage: worker.py probe|measure|trace {'|'.join(WORKLOADS)} SEED")
    start_reference_s = statistics.median(reference_s() for _ in range(5))
    dtry = _import_dtry()
    module = importlib.import_module(workload)
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = module.build(seed, workdir, dtry)
        _settle()
        ready = time.monotonic()
        ready_peak_rss_mb = _peak_rss_mb()
        ready_reference_s = statistics.median(reference_s() for _ in range(5))
        if mode == "probe":
            result = {}
        elif mode == "measure":
            result = measure(ops, module.PASSES)
        else:
            result = trace(ops, dtry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    result["ready"] = ready
    result["setup_reference_s"] = (start_reference_s + ready_reference_s) / 2
    result["ready_peak_rss_mb"] = ready_peak_rss_mb
    result["ops_per_pass"] = len(ops)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
