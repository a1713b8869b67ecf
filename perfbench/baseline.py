#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py --runs 10 [--workloads fwd-64B ...] \
        [--write]

For each workload: ``--runs`` untraced runs, each with another seed,
then one traced run.  Prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over median) against the metric's bound, and the
traced per-layer table.  ``--write`` stores the summary as
``perfbench/BASELINE.json`` and ``perfbench/BASELINE.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result "
                           f"(exit {proc.returncode}): {proc.stderr}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["info"] = info
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names,
                    choices=WORKLOADS)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    out: Dict[str, dict] = {}
    ok = True
    for w in args.workloads:
        seeds = list(range(1, args.runs + 1))
        runs = [_run(w, seed, seconds, 0) for seed in seeds]
        entry = {
            "seeds": seeds,
            "seconds": seconds,
            "all_correct": all(r["correct"] and r["exit"] == 0
                               for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "invalid_runs": sum(not r["info"].get("valid", True)
                                for r in runs),
            "config": runs[0]["info"]["config"],
            "host": runs[0]["info"]["host"],
            "end_to_end": {}}
        ok &= entry["all_correct"]
        print(f"== {w}: {args.runs} runs, correct={entry['all_correct']}, "
              f"invalid={entry['invalid_runs']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values) if len(values) >= 2 else {}
            s["values"] = values
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bound
            entry["end_to_end"][name] = s
            if s.get("spread") is not None:
                print(f"  {name:12s} median {s['median']:.6g} {s['unit']}"
                      f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f} (bound {bound},"
                      f" {s['spread'] / bound:.2f} of it)")
        traced = _run(w, seeds[0], seconds, 1)
        ok &= traced["correct"] and traced["exit"] == 0
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["per_layer_units"] = {k: v["unit"]
                                    for k, v in traced["metrics"].items()}
        print("  traced:", json.dumps(entry["per_layer"]))
        out[w] = entry
    if args.write:
        # Merge, so workloads summarized in separate calls add up.
        path = HERE / "BASELINE.json"
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.update(out)
        path.write_text(json.dumps(merged, indent=1) + "\n")
        (HERE / "BASELINE.md").write_text(_markdown(merged, spec))
    return 0 if ok else 1


def _markdown(out: Dict[str, dict], spec: dict) -> str:
    lines = ["# Baseline", "",
             "Written by `python3 perfbench/baseline.py --write`; the "
             "numbers are in `BASELINE.json`.", ""]
    first = next(iter(out.values()))
    host = first["host"]
    lines += [f"Host: {host['nproc']} CPUs, Python {host['python']}, "
              f"numpy {host['numpy']}, commit `{host['commit']}`.", ""]
    gated = {w["name"] for w in spec["workloads"]}
    lines += ["## End to end (untraced runs)", "",
              "Workloads marked * are not in BENCHMARK.json: they run, "
              "but nothing gates on them (see README.md).", "",
              "| workload | metric | unit | median | q1 | q3 | spread | "
              "bound |", "|---|---|---|---|---|---|---|---|"]
    for w, e in out.items():
        mark = "" if w in gated else " *"
        for name, s in e["end_to_end"].items():
            lines.append(f"| {w}{mark} | {name} | {s['unit']} | "
                         f"{s['median']:.6g} | {s['q1']:.6g} | "
                         f"{s['q3']:.6g} | {s['spread']:.4f} | "
                         f"{s['bound']} |")
    lines += ["", "Runs per workload, their length, invalid runs (generator "
              "behind schedule) and the resolved configuration:", ""]
    for w, e in out.items():
        lines.append(f"- {w}: {len(e['seeds'])} runs of {e['seconds']} s, "
                     f"all correct: "
                     f"{e['all_correct']}, failed {e['failed']} of "
                     f"{e['attempted']}, invalid runs {e['invalid_runs']}, "
                     f"config `{json.dumps(e['config'])}`")
    names = [m["name"] for m in spec["per_layer"]]
    traced = list(out)
    lines += ["", "## Per layer (one traced run per workload, first seed)",
              "", "0 means the workload does not call that layer.", "",
              "| metric | unit | " + " | ".join(traced) + " |",
              "|---|---|" + "---|" * len(traced)]
    for name in names:
        unit = out[traced[0]]["per_layer_units"][name]
        cells = [f"{out[w]['per_layer'][name]:.6g}" for w in traced]
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
