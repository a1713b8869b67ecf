#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fwd-64B --seed 1 --seconds 10 \
        --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced variant
and prints the per-layer ones.  The last line of standard output is
the result object; the line before it (``{"info": ...}``) records the
configuration the program resolved and what the checks found.  Any
failed output check makes the command exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Each of these silently changes the measured path.
REFUSED_ENV = ("REPRO_KERNEL", "REPRO_DISPATCH_SHARDS", "REPRO_PROFILE")

#: Every workload the command runs.  BENCHMARK.json lists the ones
#: steady enough to gate on; see README.md for the closed loops.
WORKLOADS = ("fwd-64B", "fwd-1500B", "fwd-paced", "des-ramp")

#: Spans of traced runs are written here, once, at the end of the run.
SPAN_DIR = ROOT / ".perfbench_out"


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit()}


def declared() -> dict:
    """``name -> (unit, kind)`` for every metric BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            out[m["name"]] = (m["unit"], kind)
    return out


def shape(metrics: dict, trace: bool, decl: dict) -> dict:
    """The printed metric set: exactly the declared metrics of the run's
    kind.  Per-layer metrics of layers the workload never calls read
    0; a produced metric that is undeclared or in another unit is an
    error."""
    kind = "per_layer" if trace else "end_to_end"
    out = {}
    for name, (value, unit) in metrics.items():
        if name not in decl or decl[name] != (unit, kind):
            raise ValueError(f"metric {name} [{unit}] is not declared as "
                             f"{kind} in BENCHMARK.json")
        out[name] = {"value": float(value), "unit": unit}
    for name, (unit, k) in decl.items():
        if k == kind and name not in out:
            if kind == "end_to_end":
                raise ValueError(f"end-to-end metric {name} not measured")
            out[name] = {"value": 0.0, "unit": unit}
    return out


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Workers the program failed to stop are killed.  The resource
    tracker that ``multiprocessing.shared_memory`` starts would
    otherwise exit only after this process has, unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join(5.0)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: it changes "
              "the measured path", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A terminated run still stops its worker and frees its shared
    # memory: the exit unwinds through the workload's ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    decl = declared()
    trace = bool(args.trace)

    t0 = time.perf_counter()
    if args.workload == "des-ramp":
        from perfbench.des import run_des
        result, info, spans = run_des(args.seed, args.seconds, trace)
    else:
        from perfbench.fwd import run_fwd
        result, info, spans = run_fwd(args.workload, args.seed,
                                      args.seconds, trace)
    metrics = shape(result["metrics"], trace, decl)
    if spans is not None:
        spans.dump(SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    info = {"workload": args.workload, "seed": args.seed, "trace": trace,
            "host": host_info(), "run_s": time.perf_counter() - t0, **info}
    print(json.dumps({"info": info}, default=str))
    correct = result["failed"] == 0 and not info.get("failures")
    if trace and info.get("self_time_gap_frac", 0.0) > 0.01:
        print("span self times do not sum to the loop wall time",
              file=sys.stderr)
        correct = False
    if not info.get("valid", True):
        print("run invalid: the generator fell more than one burst period "
              "behind schedule", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
