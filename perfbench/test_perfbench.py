"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import collections
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import frames as fr  # noqa: E402
from perfbench.run import REFUSED_ENV, WORKLOADS, shape  # noqa: E402
from perfbench.spans import SpanLog  # noqa: E402
from perfbench.stats import weighted_quantiles  # noqa: E402

MAP = ("route 10.2.0.0/16 iface 1", "route 10.1.0.0/16 iface 0")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    return {k: v for k, v in os.environ.items() if k not in REFUSED_ENV}


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env or _env(), capture_output=True,
                          text=True, timeout=300)


# -- the frame checker -------------------------------------------------

def _forward(frame: bytes) -> bytearray:
    """What a correct router emits: TTL - 1, checksum recomputed."""
    out = bytearray(frame)
    out[22] -= 1
    out[24:26] = b"\0\0"
    out[24:26] = fr.ipv4_checksum(bytes(out[14:34])).to_bytes(2, "big")
    return out


@pytest.fixture(scope="module")
def pool():
    return fr.make_pool(7, 60, 128, fr.parse_map_lines(MAP))


def test_pool_is_seeded_and_valid(pool):
    again = fr.make_pool(7, 60, 128, fr.parse_map_lines(MAP))
    other = fr.make_pool(8, 60, 128, fr.parse_map_lines(MAP))
    assert again.frames == pool.frames
    assert other.frames != pool.frames
    assert all(len(f) == 60 and fr.ipv4_checksum_ok(f) for f in pool.frames)
    assert set(pool.ifaces) == {0, 1}
    assert [fr.frame_tag(f) for f in pool.frames] == list(range(128))


def test_checker_accepts_a_forwarded_frame(pool):
    for tag in (0, 1, 127):
        out = _forward(pool.frames[tag])
        assert fr.check_frame(bytes(out), pool.ifaces[tag], pool) is None


def test_checker_rejects_wrong_ttl(pool):
    out = bytearray(pool.frames[3])          # TTL not decremented
    assert fr.check_frame(bytes(out), pool.ifaces[3], pool) == "ttl"
    out = _forward(pool.frames[3])
    out[22] -= 1                             # decremented twice
    out[24:26] = b"\0\0"
    out[24:26] = fr.ipv4_checksum(bytes(out[14:34])).to_bytes(2, "big")
    assert fr.check_frame(bytes(out), pool.ifaces[3], pool) == "ttl"


def test_checker_rejects_wrong_checksum(pool):
    out = _forward(pool.frames[5])
    out[25] ^= 0x01
    assert fr.check_frame(bytes(out), pool.ifaces[5], pool) == "checksum"


def test_checker_rejects_wrong_payload(pool):
    out = _forward(pool.frames[9])
    out[-1] ^= 0xFF
    assert fr.check_frame(bytes(out), pool.ifaces[9], pool) == "payload"


def test_checker_rejects_wrong_iface_header_and_tag(pool):
    out = bytes(_forward(pool.frames[2]))
    assert fr.check_frame(out, 1 - pool.ifaces[2], pool) == "iface"
    bad = bytearray(out)
    bad[0] ^= 0xFF                           # destination MAC
    assert fr.check_frame(bytes(bad), pool.ifaces[2], pool) == "header"
    # A rewritten destination address with a matching checksum.
    bad = bytearray(pool.frames[2])
    bad[33] ^= 0x01
    bad = _forward(bytes(bad))
    assert fr.check_frame(bytes(bad), pool.ifaces[2], pool) == "header"
    assert fr.check_frame(out[:40], pool.ifaces[2], pool) == "tag"
    assert fr.check_frame(out[:-1], pool.ifaces[2], pool) == "length"


def test_route_map_parse():
    routes = fr.parse_map_lines(MAP + ("route 10.2.3.0/24 iface 5",))
    assert fr.route_iface(routes, 0x0A020304) == 5
    assert fr.route_iface(routes, 0x0A020404) == 1
    assert fr.route_iface(routes, 0x0A010101) == 0
    assert fr.route_iface(routes, 0x0B000001) is None


# -- helpers -----------------------------------------------------------

def test_weighted_quantiles_nearest_rank():
    q = weighted_quantiles([30, 10, 20], [1, 1, 2], (0.25, 0.5, 0.75, 1.0))
    assert q == {0.25: 10.0, 0.5: 20.0, 0.75: 20.0, 1.0: 30.0}


def test_span_self_times_subtract_children():
    log = SpanLog()
    root = log.open("loop", 0)
    log.add("dispatch", 10, 30, root)
    log.add("drain", 40, 45, root)
    log.close(root, 100)
    assert log.self_times() == {"loop": 75, "dispatch": 20, "drain": 5}
    assert sum(log.self_times().values()) == 100
    log.open("never-closed", 200)
    with pytest.raises(ValueError):
        log.self_times()


def test_span_gap_counts_uncovered_stretches():
    log = SpanLog()
    root = log.open("loop", 0)
    log.add("dispatch", 0, 30, root)
    call = log.add("drain", 30, 60, root)
    log.add("inner", 35, 40, call)           # nested: not counted twice
    log.add("bench", 60, 100, root)
    log.close(root, 100)
    log.add("setup.spawn", 100, 300)         # a root of its own
    assert log.gap_frac(100) == 0.0
    log = SpanLog()
    root = log.open("loop", 0)
    log.add("dispatch", 0, 30, root)
    log.add("drain", 40, 60, root)           # 30..40 and 60..100 uncovered
    log.close(root, 100)
    assert log.gap_frac(100) == pytest.approx(0.5)


class _EchoLvrm:
    """A monitor stand-in that forwards frames correctly, in process."""

    ring_capacity = 1024

    def __init__(self, pool):
        self.pool = pool
        self.q = collections.deque()
        self.vris = [SimpleNamespace(data_in=self.q,
                                     process=SimpleNamespace(pid=os.getpid()))]

    def dispatch_many(self, frames):
        self.q.extend(frames)
        return len(frames)

    def drain(self):
        out = [(1, self.pool.ifaces[fr.frame_tag(f)], bytes(_forward(f)))
               for f in self.q]
        self.q.clear()
        return out

    def drain_until(self, n, timeout):
        if not self.q:
            time.sleep(min(timeout, 1e-4))
        return self.drain()


@pytest.mark.parametrize("workload", ["fwd-64B", "fwd-paced"])
def test_traced_loops_cover_their_wall_time(workload):
    from perfbench import fwd

    spec = fwd.SPECS[workload]
    pool = fr.make_pool(3, spec.frame_bytes, 512, fr.parse_map_lines(MAP))
    checks = fwd._Checks()
    run = fwd.FwdRun(spec, pool, _EchoLvrm(pool), checks)
    acc = fwd.Acc()
    log = SpanLog()
    loop = run.paced_slice if spec.period_s else run.closed_slice
    loop(acc, 30_000_000, log)
    assert acc.drained and checks.failed == 0
    assert log.gap_frac(acc.wall_ns) < 0.01
    assert {"dispatch", "drain", "bench"} <= set(log.self_times())


@pytest.mark.parametrize("arena_plane", [False, True])
def test_layer_costs_both_planes(pool, arena_plane):
    from perfbench.layers import layer_costs
    from repro.ipc.desc import DESC_SLOT

    costs = layer_costs("scalar", MAP, "lamport", 1024,
                        DESC_SLOT if arena_plane else 2048, arena_plane,
                        pool.frames[:32], budget_s=0.02)
    assert costs["kernels.route_ns_per_frame"] > 0
    assert costs["ipc.ring.push_ns_per_frame"] > 0
    assert costs["ipc.ring.pop_ns_per_frame"] > 0
    assert (costs["ipc.arena.write_ns_per_frame"] > 0) == arena_plane
    assert (costs["ipc.arena.read_ns_per_frame"] > 0) == arena_plane


# -- BENCHMARK.json and the command ------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    # 4 + 22 runs per workload, each with its imports and set-up.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 8) \
        < 3420
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert len(SPEC["workloads"]) >= 2
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(_NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_shape_rejects_undeclared_or_mismatched_metrics():
    decl = {"fwd_fps": ("frames/s", "end_to_end"),
            "drain.calls": ("count", "per_layer")}
    assert shape({"fwd_fps": (1.5, "frames/s")}, False, decl) == {
        "fwd_fps": {"value": 1.5, "unit": "frames/s"}}
    assert shape({}, True, decl) == {
        "drain.calls": {"value": 0.0, "unit": "count"}}
    with pytest.raises(ValueError):
        shape({"fwd_fps": (1.5, "fps")}, False, decl)
    with pytest.raises(ValueError):
        shape({"bogus": (1.0, "s")}, False, decl)
    with pytest.raises(ValueError):
        shape({}, False, decl)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_command_prints_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload != "des-ramp":
        assert info["config"]["dispatch_shards"] == 1
        assert info["failures"] == {}


#: Runs the command as a child subreaper, so every process the command
#: leaves behind becomes its child, then counts those children.
_ORPHANS = """
import ctypes, os, subprocess, sys
PR_SET_CHILD_SUBREAPER = 36
assert ctypes.CDLL(None, use_errno=True).prctl(
    PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
left = 0
while True:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break
    left += 1
    if not pid:
        break
print(rc, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are Linux-only")
@pytest.mark.parametrize("workload", ["fwd-paced", "des-ramp"])
def test_no_process_outlives_the_command(workload):
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHANS, sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.stdout.split() == ["0", "0"], proc.stderr


def test_refuses_env_that_changes_the_path():
    for key in REFUSED_ENV:
        env = _env()
        env[key] = "1"
        proc = _run("--workload", "fwd-64B", "--seed", "1", "--seconds",
                    "1", env=env)
        assert proc.returncode == 2 and key in proc.stderr
        assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fwd-64B", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
