"""The runtime forwarding workloads: fwd-64B, fwd-1500B and fwd-paced.

The bench process is the monitor and the only load generator: it builds
``RuntimeLvrm(n_vris=1, kernel_rewrite=True)`` with the program's
defaults for everything else, so each run has two processes, the bench
and one worker.  The closed-loop workloads send the next burst only
when the worker's input ring has room for it; fwd-paced sends on a
fixed schedule and times each frame from its burst's due time.
"""

from __future__ import annotations

import collections
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import frames as fr
from perfbench.layers import layer_costs
from perfbench.spans import SpanLog
from perfbench.stats import weighted_quantiles

__all__ = ["FwdSpec", "SPECS", "run_fwd"]


@dataclass(frozen=True)
class FwdSpec:
    frame_bytes: int
    burst: int
    pool: int
    #: Seconds between bursts; 0 means closed loop.
    period_s: float = 0.0


#: 60 B is the 84 B on-wire minimum without preamble, gap and FCS.
SPECS = {
    "fwd-64B": FwdSpec(frame_bytes=60, burst=256, pool=4096),
    "fwd-1500B": FwdSpec(frame_bytes=1514, burst=256, pool=1024),
    "fwd-paced": FwdSpec(frame_bytes=60, burst=32, pool=4096,
                         period_s=0.0016),
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 40
WARMUP_S = 0.5
#: The timed window is cut into slices this long; the traced run
#: alternates untraced and traced ones.
SLICE_S = 0.1
#: Timed runs fully check every CHECK_STRIDE-th drained frame; prime,
#: so the sample walks across flows and burst positions.
CHECK_STRIDE = 61
QUIESCE_S = 10.0
#: How long the closed loop sleeps when it can neither send nor drain.
IDLE_S = 20e-6
_NS = 1_000_000_000


@dataclass
class Acc:
    """What one slice of the timed window measured."""

    wall_ns: int = 0
    offered: int = 0
    accepted: int = 0
    drained: int = 0
    lat_ns: List[int] = field(default_factory=list)
    lat_n: List[int] = field(default_factory=list)
    late_ns: List[int] = field(default_factory=list)
    cpu_ns: int = 0
    worker_ticks: int = 0
    # Traced slices only.
    dispatch_calls: int = 0
    drain_calls: int = 0
    drain_empty: int = 0
    depth_sum: int = 0
    depth_n: int = 0


class _Checks:
    """Failures found by the output checks, by reason."""

    def __init__(self) -> None:
        self.reasons: Dict[str, int] = collections.Counter()
        self.checked = 0

    def fail(self, reason: str, n: int = 1) -> None:
        self.reasons[reason] += n

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


def _worker_ticks(pid: int) -> int:
    """utime + stime of ``pid`` in clock ticks."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def _vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class FwdRun:
    """One monitor, its worker, and the bookkeeping of a run."""

    def __init__(self, spec: FwdSpec, pool: fr.FramePool, lvrm,
                 checks: _Checks) -> None:
        self.spec = spec
        self.pool = pool
        self.lvrm = lvrm
        self.data_in = lvrm.vris[0].data_in
        self.pid = lvrm.vris[0].process.pid
        self.room = lvrm.ring_capacity - spec.burst
        b = spec.burst
        self.bursts = [pool.frames[i:i + b]
                       for i in range(0, len(pool.frames), b)]
        self.k = 0
        #: ``[send_ns, frames]`` per accepted burst, oldest first; the
        #: single worker's rings are FIFO, so drained frames retire
        #: bursts in order.
        self.inflight: collections.deque = collections.deque()
        self.checks = checks
        self.check_at = 0
        self.offered = 0
        self.accepted = 0
        self.drained = 0
        self.t_sched = 0

    # -- bookkeeping ------------------------------------------------------
    def _sent(self, acc: Acc, frames: Sequence[bytes], n: int,
              t_send: int) -> None:
        acc.offered += len(frames)
        acc.accepted += n
        self.offered += len(frames)
        self.accepted += n
        if n < len(frames):
            self.checks.fail("refused", len(frames) - n)
        if n:
            self.inflight.append([t_send, n])

    def _consume(self, acc: Acc, out, t: int) -> None:
        """Retire drained frames: latency by FIFO, strided checks."""
        n = len(out)
        acc.drained += n
        self.drained += n
        rem = n
        q = self.inflight
        while rem:
            if not q:
                self.checks.fail("duplicate", rem)
                break
            head = q[0]
            take = head[1] if head[1] <= rem else rem
            acc.lat_ns.append(t - head[0])
            acc.lat_n.append(take)
            head[1] -= take
            rem -= take
            if not head[1]:
                q.popleft()
        i = self.check_at
        pool = self.pool
        checks = self.checks
        while i < n:
            _vri, iface, frame = out[i]
            reason = fr.check_frame(frame, iface, pool)
            checks.checked += 1
            if reason is not None:
                checks.fail(reason)
            i += CHECK_STRIDE
        self.check_at = i - n

    # -- the loops --------------------------------------------------------
    def closed_slice(self, acc: Acc, dur_ns: int,
                     tr: Optional[SpanLog] = None) -> None:
        lvrm = self.lvrm
        dispatch_many, drain = lvrm.dispatch_many, lvrm.drain
        data_in, room, bursts = self.data_in, self.room, self.bursts
        nb = len(bursts)
        clock = time.perf_counter_ns
        start = clock()
        end = start + dur_ns
        root = tr.open("loop", start) if tr is not None else -1
        # ``t`` is where the last span ended: the bench's bookkeeping
        # from there to the next call is a ``bench`` span.
        t = start
        while t < end:
            depth = len(data_in)
            sent = depth <= room
            if sent:
                frames = bursts[self.k % nb]
                self.k += 1
                t0 = clock()
                n = dispatch_many(frames)
                t1 = clock()
                self._sent(acc, frames, n, t0)
                if tr is not None:
                    tr.add("bench", t, t0, root)
                    tr.add("dispatch", t0, t1, root, self.k)
                    t = t1
                    acc.dispatch_calls += 1
                    acc.depth_sum += depth
                    acc.depth_n += 1
            t0 = clock()
            out = drain()
            t1 = clock()
            if tr is not None:
                acc.drain_calls += 1
                tr.add("bench", t, t0, root)
                tr.add("drain" if out else "drain.empty", t0, t1, root,
                       self._oldest())
            t = t1
            if out:
                self._consume(acc, out, t)
            elif not sent:
                # Nothing to send or drain: wait without spinning, so
                # the monitor's CPU time is the work it does.
                time.sleep(IDLE_S)
                t1 = clock()
                if tr is not None:
                    tr.add("idle", t, t1, root)
                    acc.drain_empty += 1
                t = t1
            elif tr is not None:
                acc.drain_empty += 1
        if tr is not None:
            t1 = clock()
            tr.add("bench", t, t1, root)
            tr.close(root, t1)
        acc.wall_ns += clock() - start

    def paced_slice(self, acc: Acc, dur_ns: int,
                    tr: Optional[SpanLog] = None) -> None:
        lvrm = self.lvrm
        dispatch_many, drain_until = lvrm.dispatch_many, lvrm.drain_until
        bursts = self.bursts
        nb = len(bursts)
        period = int(self.spec.period_s * _NS)
        clock = time.perf_counter_ns
        start = clock()
        end = start + dur_ns
        if not self.t_sched:
            self.t_sched = start
        root = tr.open("loop", start) if tr is not None else -1
        # Where the last span ended, as in closed_slice.
        t = start
        while True:
            due = self.t_sched + self.k * period
            now = clock()
            if now >= due and due < end:
                frames = bursts[self.k % nb]
                self.k += 1
                depth = len(self.data_in) if tr is not None else 0
                t0 = clock()
                n = dispatch_many(frames)
                t1 = clock()
                self._sent(acc, frames, n, due)
                acc.late_ns.append(now - due)
                if tr is not None:
                    tr.add("bench", t, t0, root)
                    tr.add("dispatch", t0, t1, root, self.k)
                    t = t1
                    acc.dispatch_calls += 1
                    acc.depth_sum += depth
                    acc.depth_n += 1
                continue
            if now >= end:
                break
            # Idle in the program's own wait path until output shows up
            # or the next burst is due.
            t0 = clock()
            out = drain_until(1, timeout=(min(due, end) - now) / _NS)
            t1 = clock()
            if tr is None:
                if out:
                    self._consume(acc, out, t1)
                continue
            acc.drain_calls += 1
            tr.add("bench", t, t0, root)
            t = t1
            if not out:
                tr.add("drain.empty", t0, t1, root)
                acc.drain_empty += 1
                continue
            tr.add("drain", t0, t1, root, self._oldest())
            self._consume(acc, out, t1)
        if tr is not None:
            t1 = clock()
            tr.add("bench", t, t1, root)
            tr.close(root, t1)
        acc.wall_ns += clock() - start

    def _oldest(self) -> int:
        return self.k - len(self.inflight)

    def slice(self, acc: Acc, dur_ns: int,
              tr: Optional[SpanLog] = None) -> None:
        """One timed slice, with both processes' CPU time over it."""
        cpu0 = time.process_time_ns()
        ticks0 = _worker_ticks(self.pid)
        if self.spec.period_s:
            self.paced_slice(acc, dur_ns, tr)
        else:
            self.closed_slice(acc, dur_ns, tr)
        acc.worker_ticks += _worker_ticks(self.pid) - ticks0
        acc.cpu_ns += time.process_time_ns() - cpu0

    def quiesce(self) -> None:
        """Stop offering and drain until every accepted frame is back."""
        acc = Acc()
        deadline = time.perf_counter_ns() + int(QUIESCE_S * _NS)
        while self.inflight:
            now = time.perf_counter_ns()
            if now >= deadline:
                break
            out = self.lvrm.drain_until(1, timeout=(deadline - now) / _NS)
            if out:
                self._consume(acc, out, time.perf_counter_ns())
        missing = self.accepted - self.drained
        if missing > 0:
            self.checks.fail("missing", missing)

    def check_pass(self) -> int:
        """Send the whole pool once and check every frame; returns the
        number of frames offered."""
        lvrm = self.lvrm
        got: List[Tuple[int, int, bytes]] = []
        accepted = offered = 0
        for frames in self.bursts:
            while len(self.data_in) > self.room:
                got.extend(lvrm.drain())
            accepted += lvrm.dispatch_many(frames)
            offered += len(frames)
            got.extend(lvrm.drain())
        if len(got) < accepted:
            got.extend(lvrm.drain_until(accepted - len(got),
                                        timeout=QUIESCE_S))
        checks = self.checks
        if accepted < offered:
            checks.fail("refused", offered - accepted)
        seen = bytearray(len(self.pool.frames))
        for _vri, iface, frame in got:
            reason = fr.check_frame(frame, iface, self.pool)
            checks.checked += 1
            if reason is not None:
                checks.fail(reason)
                continue
            tag = fr.frame_tag(frame)
            if seen[tag]:
                checks.fail("duplicate")
            seen[tag] = 1
        if len(got) < accepted:
            checks.fail("missing", accepted - len(got))
        self.offered += offered
        return offered


# -- one run ----------------------------------------------------------------

def _arena_plane(lvrm) -> bool:
    return getattr(lvrm, "arena", None) is not None


def _resolved(lvrm) -> Dict[str, object]:
    """The configuration the monitor resolved from its defaults; the
    fallbacks keep this working when a variant and its knob are gone."""
    return {
        "data_plane": getattr(lvrm, "data_plane",
                              "arena" if _arena_plane(lvrm) else "copy"),
        "kernel": getattr(lvrm, "kernel", None),
        "wait_strategy": getattr(lvrm, "wait_strategy", None),
        "ring_impl": getattr(lvrm, "ring_impl", None),
        "dispatch_shards": getattr(lvrm, "dispatch_shards", 1),
        "ring_capacity": lvrm.ring_capacity,
    }


def _setup(spec: FwdSpec, pool: fr.FramePool, checks: _Checks,
           tr: Optional[SpanLog]):
    """Construct a monitor and round-trip its first burst; returns
    ``(lvrm, construct_ns, first_burst_ns, frames offered)``."""
    from repro.runtime import RuntimeLvrm

    clock = time.perf_counter_ns
    t0 = clock()
    lvrm = RuntimeLvrm(n_vris=1, kernel_rewrite=True)
    t1 = clock()
    try:
        first = pool.frames[:spec.burst]
        n = lvrm.dispatch_many(first)
        got = lvrm.drain_until(n, timeout=QUIESCE_S)
        t2 = clock()
    except BaseException:
        lvrm.stop()
        raise
    if tr is not None:
        tr.add("setup.spawn", t0, t1)
        tr.add("setup.first_burst", t1, t2)
    if n < len(first):
        checks.fail("refused", len(first) - n)
    if len(got) < n:
        checks.fail("missing", n - len(got))
    for _vri, iface, frame in got:
        reason = fr.check_frame(frame, iface, pool)
        checks.checked += 1
        if reason is not None:
            checks.fail(reason)
    return lvrm, t1 - t0, t2 - t1, len(first)


def _stop(lvrm, stops: List[int], tr: Optional[SpanLog]) -> None:
    t0 = time.perf_counter_ns()
    lvrm.stop()
    t1 = time.perf_counter_ns()
    stops.append(t1 - t0)
    if tr is not None:
        tr.add("teardown.stop", t0, t1)


def _throughput(accs: Sequence[Acc], closed: bool, tick_ns: float) -> float:
    """Frames forwarded per CPU second over the window.  Closed loop:
    CPU time of the busier process, which on a host that steals no CPU
    is the wall time, so this is frames per wall second.  Paced: CPU
    time of monitor and worker together, the program's cost at the
    offered rate, which the schedule sets."""
    drained = sum(a.drained for a in accs)
    cpu = sum(a.cpu_ns for a in accs)
    worker = sum(a.worker_ticks for a in accs) * tick_ns
    return drained / ((max(cpu, worker) if closed else cpu + worker) / _NS)


def _latency(accs: Sequence[Acc]) -> Tuple[Dict[float, float], int]:
    """Latency quantiles in µs over every frame of the window, and the
    number of frames."""
    values: List[int] = []
    weights: List[int] = []
    for a in accs:
        values.extend(a.lat_ns)
        weights.extend(a.lat_n)
    qs = weighted_quantiles(values, weights, (0.5, 0.9, 0.99, 0.999))
    return {q: v / 1e3 for q, v in qs.items()}, sum(weights)


def _pin_away_from(core: Optional[int]) -> bool:
    """Keep the monitor off the worker's core when the host has another."""
    allowed = os.sched_getaffinity(0)
    others = allowed - {core}
    if core is None or not others or others == allowed:
        return False
    os.sched_setaffinity(0, others)
    return True


def run_fwd(name: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[dict, dict, Optional[SpanLog]]:
    """One run of a runtime workload: ``(result, info, spans)``.

    ``result`` holds ``attempted``/``failed``/``metrics`` (end-to-end
    metrics, or per-layer ones when ``trace``); ``info`` the resolved
    configuration and the check details.
    """
    from repro.core.vr import DEFAULT_MAP_LINES

    spec = SPECS[name]
    routes = fr.parse_map_lines(DEFAULT_MAP_LINES)
    pool = fr.make_pool(seed, spec.frame_bytes, spec.pool, routes)
    checks = _Checks()
    tr = SpanLog() if trace else None
    spawns: List[int] = []
    firsts: List[int] = []
    stops: List[int] = []
    offered = 0
    lvrm = None
    plain: List[Acc] = []
    traced: List[Acc] = []
    tick_ns = _NS / os.sysconf("SC_CLK_TCK")
    try:
        for _ in range(SETUP_REPS):
            if lvrm is not None:
                _stop(lvrm, stops, tr)
                lvrm = None
            lvrm, spawn, first, n = _setup(spec, pool, checks, tr)
            spawns.append(spawn)
            firsts.append(first)
            offered += n
        config = _resolved(lvrm)
        # After the last fork: a pinned parent would pass its mask on.
        config["monitor_pinned"] = _pin_away_from(lvrm.vris[0].core_id)
        probe_args = (config["kernel"], lvrm.map_lines, config["ring_impl"],
                      lvrm.ring_capacity, lvrm.vris[0].data_in.slot_size,
                      _arena_plane(lvrm))
        run = FwdRun(spec, pool, lvrm, checks)
        run.slice(Acc(), int(WARMUP_S * _NS))
        n_slices = max(2, round(seconds / SLICE_S))
        slice_ns = int(seconds / n_slices * _NS)
        for i in range(n_slices):
            acc = Acc()
            if trace and i % 2:
                run.slice(acc, slice_ns, tr)
                traced.append(acc)
            else:
                run.slice(acc, slice_ns)
                plain.append(acc)
        run.quiesce()
        run.check_pass()
        offered += run.offered
        rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + _vm_hwm_kib(run.pid))
    finally:
        if lvrm is not None:
            _stop(lvrm, stops, tr)

    lat, lat_samples = _latency(plain)
    late = sorted(x for a in plain for x in a.late_ns)
    period_us = spec.period_s * 1e6
    behind = sum(1 for x in late if x > period_us * 1e3)
    late_p99_us = (late[min(len(late) - 1, int(0.99 * len(late)))] / 1e3
                   if late else 0.0)
    closed = not spec.period_s
    fps = _throughput(plain, closed, tick_ns)
    info = {
        "config": config,
        "frame_bytes": spec.frame_bytes, "burst": spec.burst,
        "loop": "paced" if spec.period_s else "closed",
        "offered": offered, "checked": checks.checked,
        "failures": dict(checks.reasons),
        "lat_samples": lat_samples,
        "loadgen_late_p99_us": late_p99_us,
        "loadgen_bursts_behind": behind,
        # More than 1 % of bursts went out over a period late: the
        # generator fell behind, so the run is kept and counted, but
        # its latency is suspect.  A lone host stall does not count.
        "valid": not period_us or late_p99_us <= period_us,
    }
    if not trace:
        metrics = {
            "fwd_fps": (fps, "frames/s"),
            "lat_p50_us": (lat[0.5], "us"),
            "setup_s": (statistics.median(s + f for s, f in
                                          zip(spawns, firsts)) / _NS, "s"),
            "rss_mb": (rss_kib / 1024, "MiB"),
        }
        return ({"attempted": offered, "failed": checks.failed,
                 "metrics": metrics}, info, None)

    # -- per-layer numbers from the traced slices --------------------------
    self_ns = tr.self_times()
    wall = sum(a.wall_ns for a in traced)
    info["self_time_gap_frac"] = tr.gap_frac(wall)
    accepted = sum(a.accepted for a in traced)
    t_offered = sum(a.offered for a in traced)
    drained = sum(a.drained for a in traced)
    calls = sum(a.drain_calls for a in traced)
    empty = sum(a.drain_empty for a in traced)
    depth_n = sum(a.depth_n for a in traced)
    cpu = sum(a.cpu_ns for a in traced)
    worker_cpu = sum(a.worker_ticks for a in traced) * tick_ns
    traced_fps = _throughput(traced, closed, tick_ns)
    layers = layer_costs(*probe_args, frames=pool.frames[:spec.burst])
    per_frame = (lambda ns: ns / drained) if drained else (lambda ns: 0.0)
    metrics = {
        "setup.spawn_s": (statistics.median(spawns) / _NS, "s"),
        "setup.first_burst_s": (statistics.median(firsts) / _NS, "s"),
        "teardown.stop_s": (statistics.median(stops) / _NS, "s"),
        "dispatch.calls": (sum(a.dispatch_calls for a in traced), "count"),
        "dispatch.ns_per_frame": (self_ns.get("dispatch", 0) / accepted
                                  if accepted else 0.0, "ns"),
        "dispatch.refused_frac": ((t_offered - accepted) / t_offered
                                  if t_offered else 0.0, "fraction"),
        "drain.calls": (calls, "count"),
        "drain.ns_per_frame": (per_frame(self_ns.get("drain", 0)), "ns"),
        "drain.frames_per_call": (drained / (calls - empty)
                                  if calls > empty else 0.0, "frames"),
        "drain.empty_frac": (empty / calls if calls else 0.0, "fraction"),
        "monitor.busy_frac": ((self_ns.get("dispatch", 0)
                               + self_ns.get("drain", 0)) / wall, "fraction"),
        "monitor.cpu_ns_per_frame": (per_frame(cpu), "ns"),
        "worker.cpu_ns_per_frame": (per_frame(worker_cpu), "ns"),
        "worker.cpu_frac": (worker_cpu / wall, "fraction"),
        "ring.depth_mean": (sum(a.depth_sum for a in traced) / depth_n
                            if depth_n else 0.0, "frames"),
        "loadgen.late_p99_us": (late_p99_us, "us"),
        "loadgen.bursts_behind": (behind, "count"),
        "lat_p90_us": (lat[0.9], "us"),
        "lat_p99_us": (lat[0.99], "us"),
        "lat_p999_us": (lat[0.999], "us"),
        "lat.samples": (lat_samples, "count"),
        "loss_frac": (checks.failed / offered, "fraction"),
        "trace.overhead_frac": (1.0 - traced_fps / fps if fps else 0.0,
                                "fraction"),
        "trace.self_gap_frac": (info["self_time_gap_frac"], "fraction"),
    }
    for key, value in layers.items():
        metrics[key] = (value, "ns")
    return ({"attempted": offered, "failed": checks.failed,
             "metrics": metrics}, info, tr)

