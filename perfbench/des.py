"""The des-ramp workload: the Fig 4.10 DES scenario exp2c runs.

Two senders on the simulated 1-GbE testbed feed one C++ VR through
PF_RING; fixed-threshold dynamic allocation follows the 60 -> 360 -> 60
kfps staircase.  Rates are scaled by ``RATE_SCALE`` (thresholds and the
1/60 ms dummy load co-scale, as exp2c's profiles do) and the simulated
duration is fixed.  The seed sets the two senders' phase offsets.

A run repeats the scenario until its time is used up.  Its times are
CPU time of the simulating process, scaled to a reference host speed:
throughput is simulated frames delivered per CPU second, latency the
CPU time one ``SLICE_SIM_S`` slice of simulated time takes at the
staircase's peak, set-up the CPU time to build the scenario.

The scaling: a shared host's speed drifts by a third over minutes (a
sibling hyperthread, another guest), and CPU time drifts with it.  So
before the first repetition and after each one the run times a fixed
pass of pure-Python reference work, and reports each time as if a
reference pass took ``REF_NS``.  A change to the program moves the
scaled figures; a slower host moves the reference as well and cancels.
"""

from __future__ import annotations

import cProfile
import heapq
import pstats
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.spans import SpanLog

__all__ = ["run_des", "ramp_once", "check_staircase"]

RATE_SCALE = 0.05
STEP_S = 0.1
ALLOCATION_PERIOD_S = 0.02
SLICE_SIM_S = 0.01
MIN_REPS = 3
#: The machine's cores minus LVRM's own; exp2c's staircase peaks here.
CORE_BUDGET = 7
_NS = 1_000_000_000
#: Packages whose self time the profiled run reports.
PACKAGES = ("sim", "core", "net", "hardware", "traffic", "obs")
#: Iterations of one reference pass, and the CPU time a pass is
#: scaled to: about what it took on the host of BASELINE.md.
REF_ITERS = 120_000
REF_NS = 100_000_000


def reference_ns() -> int:
    """CPU time of one reference pass: a heap of timestamped entries,
    dict stores and method calls, the operations the simulator spends
    its time on, with nothing from the program."""

    class Item:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int) -> None:
            self.a, self.b = a, b

        def at(self, x: int) -> int:
            return self.a * x + self.b

    c0 = time.process_time_ns()
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    item = Item(3, 1)
    for i in range(REF_ITERS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 1023] = item.at(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.process_time_ns() - c0


@dataclass
class Rep:
    """One scenario run; times are CPU time of this process, which the
    host cannot steal, except ``wall_ns``."""

    setup_ns: int
    slice_ns: List[int]
    wall_ns: int
    events: int
    sent: int
    delivered: int
    dropped: int
    #: ``(offered fps, cores)`` at 3/4 of each staircase step.
    steps: List[Tuple[float, int]] = field(default_factory=list)
    #: CPU time of the slices inside the 360 kfps step.
    peak_ns: List[int] = field(default_factory=list)

    @property
    def run_ns(self) -> int:
        return sum(self.slice_ns)


def _dropped(testbed, lvrm) -> int:
    """Every frame a counter says was dropped on the way."""
    n = sum(nic.rx_dropped + nic.tx_dropped for nic in testbed.gw_nics)
    links = [h.tx_link for h in testbed.hosts.values()]
    links += [nic.tx_link for nic in testbed.gw_nics]
    n += sum(link.dropped for link in links if link is not None)
    n += testbed.switch_a.unroutable + testbed.switch_b.unroutable
    st = lvrm.stats
    n += st.dropped_no_vr + st.dropped_queue_full + st.dropped_tx
    n += sum(v.dropped_no_route + v.dropped_out_full + v.dropped_corrupt
             for v in lvrm.all_vris())
    for entry in lvrm.vr_monitor.entries.values():
        monitor = entry.monitor
        n += monitor.dropped_on_destroy + monitor.dropped_on_failure
    return n


def ramp_once(seed: int, tr: Optional[SpanLog] = None,
              profile: Optional[cProfile.Profile] = None) -> Rep:
    """Build and run the scenario once."""
    from repro import obs
    from repro.core import DynamicFixedThresholds, LvrmConfig
    from repro.experiments.common import build_lvrm_gateway
    from repro.experiments.exp2_core_alloc import DUMMY_LOAD_1_60MS
    from repro.net import Testbed
    from repro.sim import Simulator
    from repro.traffic import RampSender, step_ramp

    obs.reset()
    rng = random.Random(seed)
    s = RATE_SCALE
    clock = time.perf_counter_ns
    cpu = time.process_time_ns
    t0 = clock()
    c0 = cpu()
    sim = Simulator()
    testbed = Testbed(sim)
    config = LvrmConfig(record_latency=False,
                        allocation_period=ALLOCATION_PERIOD_S)
    _machine, lvrm = build_lvrm_gateway(
        sim, testbed, n_vrs=1,
        allocator_factory=lambda: DynamicFixedThresholds(60_000.0 * s),
        config=config, dummy_load=DUMMY_LOAD_1_60MS / s)
    t_start = 0.01
    schedules, senders = [], []
    # One VR owns both sender subnets, so both hosts feed it a
    # half-rate staircase.
    for host, dst in (("s1", "r1"), ("s2", "r2")):
        schedule = step_ramp(180_000.0 * s, 30_000.0 * s, STEP_S,
                             t_start=t_start)
        schedules.append(schedule)
        senders.append(RampSender(sim, testbed.hosts[host],
                                  testbed.host_ip(dst), schedule,
                                  frame_size=84,
                                  phase=rng.uniform(0.0, 5e-6)))
    end = schedules[0][-1][0] + 4 * ALLOCATION_PERIOD_S
    c1 = cpu()
    t1 = clock()
    root = tr.open("ramp", t0) if tr is not None else -1
    if tr is not None:
        tr.add("des.build", t0, t1, root)
    slices: List[int] = []
    n_slices = int(round(end / SLICE_SIM_S))
    if profile is not None:
        profile.enable()
    # ``mark`` is where the last span ended; the bookkeeping between
    # two slices is a ``bench`` span.
    mark = t1
    for i in range(1, n_slices + 1):
        a, ca = clock(), cpu()
        sim.run(until=min(i * SLICE_SIM_S, end))
        b = clock()
        slices.append(cpu() - ca)
        if tr is not None:
            tr.add("bench", mark, a, root)
            tr.add("sim.run", a, b, root)
            mark = b
    if profile is not None:
        profile.disable()
    t2 = clock()
    if tr is not None:
        tr.add("bench", mark, t2, root)
        tr.close(root, t2)
    t_peak = max(schedules[0], key=lambda step: step[1])[0]
    first = int(round(t_peak / SLICE_SIM_S))
    peak = slices[first:first + int(round(STEP_S / SLICE_SIM_S))]
    series = lvrm.vr_monitor.entries["vr1"].cores_series
    steps = []
    for t_step, _rate in schedules[0]:
        mid = t_step + 0.75 * STEP_S
        if mid > sim.now:
            break
        offered = sum(next((r for t, r in reversed(sch) if t <= mid), 0.0)
                      for sch in schedules)
        steps.append((offered / s, int(series.value_at(mid))))
    return Rep(setup_ns=c1 - c0, slice_ns=slices, wall_ns=t2 - t0,
               events=sim.events_processed,
               sent=sum(x.sent for x in senders),
               delivered=(testbed.hosts["r1"].rx_count
                          + testbed.hosts["r2"].rx_count),
               dropped=_dropped(testbed, lvrm), steps=steps, peak_ns=peak)


def check_staircase(steps: List[Tuple[float, int]]) -> Optional[str]:
    """exp2c's acceptance: cores monotone in offered rate, the peak at
    the core budget, little at the lowest step."""
    by_rate: Dict[float, List[int]] = {}
    for rate, cores in steps:
        by_rate.setdefault(rate, []).append(cores)
    rates = sorted(r for r in by_rate if r > 0)
    if len(rates) < 2:
        return "staircase: too few steps"
    means = [statistics.fmean(by_rate[r]) for r in rates]
    if not all(b >= a - 0.51 for a, b in zip(means, means[1:])):
        return f"staircase: cores not monotone in rate {means}"
    peak = max(c for _r, c in steps)
    if peak < CORE_BUDGET - 1:
        return f"staircase: peak {peak} cores, budget {CORE_BUDGET}"
    if min(by_rate[rates[0]]) > 3:
        return f"staircase: {min(by_rate[rates[0]])} cores at lowest rate"
    return None


def _check(rep: Rep, events: int) -> List[str]:
    problems = []
    if rep.sent != rep.delivered + rep.dropped:
        problems.append(f"conservation: sent {rep.sent} != delivered "
                        f"{rep.delivered} + dropped {rep.dropped}")
    if rep.events != events:
        problems.append(f"repeatability: {rep.events} events, first rep "
                        f"had {events}")
    bad = check_staircase(rep.steps)
    if bad:
        problems.append(bad)
    return problems


def _self_fracs(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiled self time by ``repro.<package>``; the rest is other."""
    stats = pstats.Stats(profile)
    by_pkg = {p: 0.0 for p in PACKAGES}
    other = 0.0
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        parts = filename.replace("\\", "/").split("/repro/", 1)
        pkg = parts[1].split("/", 1)[0] if len(parts) == 2 else ""
        if pkg in by_pkg:
            by_pkg[pkg] += tottime
        else:
            other += tottime
    total = sum(by_pkg.values()) + other
    out = {f"des.self_frac.{p}": (v / total if total else 0.0)
           for p, v in by_pkg.items()}
    out["des.self_frac.other"] = other / total if total else 0.0
    return out


def run_des(seed: int, seconds: float, trace: bool
            ) -> Tuple[dict, dict, Optional[SpanLog]]:
    tr = SpanLog() if trace else None
    reps: List[Rep] = []
    refs = [reference_ns()]
    problems: List[str] = []
    deadline = time.perf_counter_ns() + int(seconds * _NS)
    while len(reps) < MIN_REPS or time.perf_counter_ns() < deadline:
        rep = ramp_once(seed, tr)
        refs.append(reference_ns())
        problems += _check(rep, reps[0].events if reps else rep.events)
        reps.append(rep)
    profiled = None
    if trace:
        prof = cProfile.Profile()
        profiled = ramp_once(seed, profile=prof)
        problems += _check(profiled, reps[0].events)
    attempted = sum(r.sent for r in reps)
    failed = attempted if problems else 0
    # Scaled CPU time = CPU time * scale.
    scale = REF_NS / statistics.fmean(refs)
    fps = sum(r.delivered for r in reps) / (sum(r.run_ns for r in reps)
                                            / _NS)
    info = {"config": {"rate_scale": RATE_SCALE, "step_s": STEP_S,
                       "allocation_period_s": ALLOCATION_PERIOD_S,
                       "slice_sim_s": SLICE_SIM_S, "ref_ns": REF_NS},
            "reps": len(reps), "events": reps[0].events,
            "sent": reps[0].sent, "delivered": reps[0].delivered,
            "dropped": reps[0].dropped, "steps": reps[0].steps,
            "ref_ns_mean": statistics.fmean(refs), "unscaled_fps": fps,
            "failures": problems}
    if not trace:
        # Slices of one step cost alike; over the whole staircase the
        # median would fall between steps and jump.
        p50 = statistics.median(x for r in reps for x in r.peak_ns)
        metrics = {
            "fwd_fps": (fps / scale, "frames/s"),
            "lat_p50_us": (p50 * scale / 1e3, "us"),
            "setup_s": (statistics.median(r.setup_ns for r in reps)
                        * scale / _NS, "s"),
            "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024, "MiB"),
        }
        return ({"attempted": attempted, "failed": failed,
                 "metrics": metrics}, info, None)
    wall = sum(r.wall_ns for r in reps)
    info["self_time_gap_frac"] = tr.gap_frac(wall)
    profiled_fps = profiled.delivered / (profiled.run_ns / _NS)
    rep = reps[0]
    metrics = {
        "sim.events": (rep.events, "count"),
        "sim.events_per_frame": (rep.events / rep.delivered, "events"),
        "des.frames": (rep.delivered, "count"),
        "lat_p90_us": (statistics.quantiles(
            [x for r in reps for x in r.slice_ns], n=10)[-1] * scale / 1e3,
            "us"),
        "trace.overhead_frac": (1.0 - profiled_fps / fps, "fraction"),
        "trace.self_gap_frac": (info["self_time_gap_frac"], "fraction"),
        "loss_frac": (failed / attempted, "fraction"),
    }
    for key, value in _self_fracs(prof).items():
        metrics[key] = (value, "fraction")
    return ({"attempted": attempted, "failed": failed, "metrics": metrics},
            info, tr)
