"""Spans around the program's layer entry points, recorded from outside.

Each entry point is replaced, at the module attribute through which the
program looks it up, by a wrapper that records a span: name, start, end,
parent span and op id.  Spans are kept in memory; ``layer_metrics`` reduces
them to per-layer counts and times and ``dump`` writes them out.

A span's self time is its duration minus the durations of its direct
children.  Wrappers record nothing outside an op, so the benchmark's own input
generation and checking never show up in the trace.

``Eps`` arithmetic in ``spaces`` is not wrapped: it runs thousands of times per
op and wrapping it would swamp it.  Its time is part of ``regularity`` self
time.  ``fixtures`` is not on the op path at all.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

from polystokes import cli, edge_pencil, geometry, regularity

# (module, attribute, span name); the same span name may be patched at several
# lookup sites, each call goes through exactly one of them
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (geometry, "loads_polyhedron", "geometry.load"),
    (geometry.Polyhedron, "vertex_cone", "geometry.vertex_cone"),
    (geometry, "linprog", "geometry.linprog"),
    (cli, "check", "regularity.check"),
    (cli, "max_s", "regularity.max_s"),
    (regularity, "vertex_findings", "regularity.vertex_findings"),
    (regularity, "matching_rows", "regularity.matching_rows"),
    (regularity, "eigenfree_strip", "vertex_pencil.eigenfree_strip"),
    (edge_pencil, "mu_real_root", "edge_pencil.mu_real_root"),
    (edge_pencil, "mu_numeric", "edge_pencil.mu_numeric"),
    (edge_pencil, "solve_spectrum", "edge_pencil.solve_spectrum"),
    (cli, "solve_spectrum", "edge_pencil.solve_spectrum"),
    (cli, "pencil_residual", "edge_pencil.pencil_residual"),
    (edge_pencil, "eig", "edge_pencil.eig"),
    (edge_pencil, "svdvals", "edge_pencil.svdvals"),
)

REGULARITY_SPANS = ("regularity.check", "regularity.max_s",
                    "regularity.vertex_findings", "regularity.matching_rows")

# wedges closer than this in opening angle count as one (the mesh tolerance)
WEDGE_TOL = 1e-9


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, op id]
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.cone_keys = set()        # (op, polyhedron id, vertex)
        self.wedges: List[tuple] = []  # (op, canonical pair, theta) per solve
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        note = self._note_cone if name == "geometry.vertex_cone" else \
            self._note_wedge if name == "edge_pencil.solve_spectrum" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
        return wrapper

    def _note_cone(self, args, kwargs):
        poly = args[0]
        vertex = args[1] if len(args) > 1 else kwargs["vertex"]
        self.cone_keys.add((self.op, id(poly), int(vertex)))

    def _note_wedge(self, args, kwargs):
        p = args[0] if args else kwargs["p"]
        self.wedges.append((self.op, tuple(sorted((p.d_plus, p.d_minus))), float(p.theta)))

    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            fn = vars(owner)[attr]  # the class attribute itself, not a bound method
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def distinct_wedges(self) -> int:
        """Distinct wedges solved, counted within each op and summed."""
        count = 0
        last = None
        for op, pair, theta in sorted(self.wedges):
            if last is None or (op, pair) != last[:2] or theta - last[2] > WEDGE_TOL:
                count += 1
            last = (op, pair, theta)
        return count

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Per-op counts and seconds for every layer, plus run-level ratios."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child_time = [0.0] * n
        child_solves = [0] * n
        for s, d in zip(self.spans, dur):
            if s[3] is not None:
                child_time[s[3]] += d
                if s[0] == "edge_pencil.solve_spectrum":
                    child_solves[s[3]] += 1
        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        self_t: Dict[str, float] = {}
        widenings = 0
        for i, s in enumerate(self.spans):
            calls[s[0]] = calls.get(s[0], 0) + 1
            total[s[0]] = total.get(s[0], 0.0) + dur[i]
            self_t[s[0]] = self_t.get(s[0], 0.0) + dur[i] - child_time[i]
            if s[0] == "edge_pencil.mu_numeric":
                widenings += max(child_solves[i] - 1, 0)
        solves = calls.get("edge_pencil.solve_spectrum", 0)
        distinct = self.distinct_wedges()
        per = 1.0 / max(ops, 1)

        def c(name):
            return calls.get(name, 0) * per

        def t(name, table):
            return table.get(name, 0.0) * per

        return {
            "geometry.load_calls": c("geometry.load"),
            "geometry.load_s": t("geometry.load", total),
            "geometry.cone_calls": c("geometry.vertex_cone"),
            "geometry.cone_misses": len(self.cone_keys) * per,
            "geometry.cone_s": t("geometry.vertex_cone", total),
            "geometry.lp_calls": c("geometry.linprog"),
            "geometry.lp_s": t("geometry.linprog", total),
            "edge_pencil.solve_calls": c("edge_pencil.solve_spectrum"),
            "edge_pencil.distinct_wedges": distinct * per,
            "edge_pencil.useful_ratio": distinct / solves if solves else 1.0,
            "edge_pencil.widenings": widenings * per,
            "edge_pencil.qz_calls": c("edge_pencil.eig"),
            "edge_pencil.qz_s": t("edge_pencil.eig", total),
            "edge_pencil.svd_calls": c("edge_pencil.svdvals"),
            "edge_pencil.svd_s": t("edge_pencil.svdvals", total),
            "edge_pencil.solve_self_s": t("edge_pencil.solve_spectrum", self_t),
            "edge_pencil.closed_form_calls": c("edge_pencil.mu_real_root"),
            "edge_pencil.closed_form_s": t("edge_pencil.mu_real_root", total),
            "vertex_pencil.strip_calls": c("vertex_pencil.eigenfree_strip"),
            "vertex_pencil.strip_s": t("vertex_pencil.eigenfree_strip", total),
            "regularity.scan_calls": c("regularity.max_s"),
            "regularity.check_calls": c("regularity.check"),
            "regularity.findings_calls": c("regularity.vertex_findings"),
            "regularity.rows_calls": c("regularity.matching_rows"),
            "regularity.self_s": sum(self_t.get(r, 0.0) for r in REGULARITY_SPANS) * per,
            "cli.ops": float(ops),
            "cli.self_s": t("cli.main", self_t),
        }

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
