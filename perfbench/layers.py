"""In-process costs of the layers the worker and the drain path call.

Each cost is timed on the workload's own bursts, against the kernel,
ring kind and data plane the monitor resolved, with no second process
involved: the per-frame price of one layer, free of scheduling noise.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["layer_costs"]


def _ns_per_frame(samples: List[int], n: int) -> float:
    return statistics.median(samples) / n if samples else 0.0


def layer_costs(kernel_kind: str, map_lines: Sequence[str], ring_impl: str,
                ring_capacity: int, slot_size: int, arena_plane: bool,
                frames: Sequence[bytes], budget_s: float = 0.3
                ) -> Dict[str, float]:
    """Median ns/frame of the kernel route call, a ring push and pop,
    and (arena plane only) an arena write and read+free."""
    from repro.ipc.factory import make_ring, ring_bytes_for
    from repro.kernels import make_kernel
    from repro.routing.mapfile import parse_map_lines

    routes, _arp = parse_map_lines(tuple(map_lines))
    kernel = make_kernel(kernel_kind, routes, rewrite_ttl=True)
    ring = make_ring(ring_impl,
                     bytearray(ring_bytes_for(ring_impl, ring_capacity,
                                              slot_size)),
                     ring_capacity, slot_size)
    n = len(frames)
    route: List[int] = []
    push: List[int] = []
    pop: List[int] = []
    write: List[int] = []
    read: List[int] = []
    clock = time.perf_counter_ns
    deadline = clock() + int(budget_s * 1e9)
    try:
        if arena_plane:
            from repro.ipc.arena import FrameArena, arena_bytes_needed

            cpc = 2 * n + 64
            arena = FrameArena(bytearray(arena_bytes_needed(
                chunks_per_class=cpc, n_reclaim=1)),
                chunks_per_class=cpc, n_reclaim=1)
            prod = arena.producer()
            mask = np.uint64(0xFFFFFFFF)
            while clock() < deadline:
                # Staged afresh each round: the rewrite lowers TTLs in
                # place.
                t0 = clock()
                block = prod.write_block(frames)
                t1 = clock()
                if len(block) != n:
                    raise RuntimeError("arena ran dry in the layer probe")
                offsets = np.ascontiguousarray(block[:, 0])
                lengths = np.ascontiguousarray(block[:, 1] & mask)
                t2 = clock()
                kernel.route_block(arena.buffer, offsets, lengths)
                t3 = clock()
                pushed = ring.try_push_desc_block(block)
                t4 = clock()
                popped = ring.try_pop_desc_block(n)
                t5 = clock()
                arena.read_block(popped)
                prod.free_local_many(popped[:, 0])
                t6 = clock()
                if pushed != n or len(popped) != n:
                    raise RuntimeError("ring refused a burst in the probe")
                write.append(t1 - t0)
                route.append(t3 - t2)
                push.append(t4 - t3)
                pop.append(t5 - t4)
                read.append(t6 - t5)
            arena.close()
        else:
            # The worker routes borrowed views of its ring slots.
            views = [memoryview(f) for f in frames]
            while clock() < deadline:
                t0 = clock()
                kernel.route_frames_rewrite(views)
                t1 = clock()
                pushed = ring.try_push_many(frames)
                t2 = clock()
                popped = ring.try_pop_many(n)
                t3 = clock()
                if pushed != n or len(popped) != n:
                    raise RuntimeError("ring refused a burst in the probe")
                route.append(t1 - t0)
                push.append(t2 - t1)
                pop.append(t3 - t2)
    finally:
        ring.close()
    return {
        "kernels.route_ns_per_frame": _ns_per_frame(route, n),
        "ipc.ring.push_ns_per_frame": _ns_per_frame(push, n),
        "ipc.ring.pop_ns_per_frame": _ns_per_frame(pop, n),
        "ipc.arena.write_ns_per_frame": _ns_per_frame(write, n),
        "ipc.arena.read_ns_per_frame": _ns_per_frame(read, n),
    }
