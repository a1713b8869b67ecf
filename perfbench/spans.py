"""In-memory span log for the traced run.

A span is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is
the index of the span that caused it (-1 for a root) and ``request``
the burst the call served, so the spans of one burst share an id.
Spans stay in a list until :meth:`SpanLog.dump` writes them once, at
the end of the run.

The loops record their child spans end to end, so the children of a
root tile it: the bench's own bookkeeping between two calls is a
``bench`` span.  :meth:`SpanLog.gap_frac` checks that they do.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

__all__ = ["SpanLog"]


class SpanLog:
    def __init__(self) -> None:
        self.rows: List[List[int]] = []
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start_ns: int, parent: int = -1,
             request: int = -1) -> int:
        """Start a span whose end is not known yet; returns its index."""
        self.rows.append([self._name_id(name), start_ns, -1, parent, request])
        return len(self.rows) - 1

    def close(self, index: int, end_ns: int) -> None:
        self.rows[index][2] = end_ns

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = -1,
            request: int = -1) -> int:
        self.rows.append([self._name_id(name), start_ns, end_ns, parent,
                          request])
        return len(self.rows) - 1

    def self_times(self) -> Dict[str, int]:
        """Nanoseconds of self time per span name: each span's duration
        minus the durations of its children."""
        child = [0] * len(self.rows)
        for _nid, t0, t1, parent, _req in self.rows:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, int] = {}
        for i, (nid, t0, t1, _parent, _req) in enumerate(self.rows):
            if t1 < t0:
                raise ValueError(f"span {i} ({self.names[nid]}) never "
                                 "closed or ends before it starts")
            name = self.names[nid]
            out[name] = out.get(name, 0) + (t1 - t0) - child[i]
        return out

    def gap_frac(self, wall_ns: int) -> float:
        """How far the spans directly under a root miss ``wall_ns``, the
        loops' wall time, as a share of it.  A stretch of a loop that no
        child span covers shows here; the roots' own self time does not
        count."""
        rows = self.rows
        child_ns = sum(t1 - t0 for _nid, t0, t1, parent, _req in rows
                       if parent >= 0 and rows[parent][3] < 0)
        return abs(child_ns - wall_ns) / wall_ns

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for nid, t0, t1, parent, req in self.rows:
                fh.write(json.dumps({"name": self.names[nid], "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "request": req}) + "\n")
