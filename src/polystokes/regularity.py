"""Mechanical evaluation of the regularity and small-data existence results.

Each check is a conjunction of decidable conditions: per-edge inequalities on
the edge exponents, per-vertex eigenvalue-free-strip containments, explicit
integrability floors, and data-class assumption flags (which are echoed, never
inferred).  Verdicts are three-valued: ``holds`` when everything is certified,
``fails`` when a condition is violated outright (including a guaranteed
eigenvalue sitting inside a required strip), ``unknown`` when certification is
out of reach (e.g. no vertex rule applies, or no window certifies an edge
exponent).

Every target is one row of a rule table (``_RULES``).  Each condition is
stated once, as a window: the edge inequality as the admissible values of the
weighted edge quantity, the vertex condition as the admissible levels of the
strip, the floors as windows of s or of the shifted weights.  ``check`` tests
the query's terms against them; ``max_s`` maps the same windows to s at zero
weights and names the binding constraint.  ``decision_table`` reproduces the
worked-example class results (classes of domains and condition patterns, with
exact rational interval endpoints); a nonweighted vertex that no catalogue
rule covers falls back to the widest matching table row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .edge_pencil import MuValue, WindowError, class_bound, edge_exponent
from .geometry import (BoundaryAssignment, Edge, Polyhedron, VertexBound,
                       graph_direction_feasible)
from .spaces import Eps, as_eps
from .vertex_pencil import (_ENERGY_LINE, INF, Interval, StripFinding, eigenfree_strip,
                            known_exceptional, strip_condition_holds)

__all__ = [
    "DataFlags",
    "ProblemSpec",
    "RegularityQuery",
    "RegularityReport",
    "Interval",
    "check",
    "max_s",
    "DecisionRow",
    "decision_table",
    "matching_rows",
    "sharpness_flags",
]

TARGETS = ("W1", "W2", "C1", "C2", "EXIST")

_EVERYTHING = Interval(Fraction(1), INF, False, True)


@dataclass(frozen=True)
class DataFlags:
    """Assumptions on the problem data; explicit, never inferred."""

    data_in_required_spaces: bool = False
    compatibility_conditions_hold: bool = False
    small_data: bool = False
    lipschitz_graph: bool = False


@dataclass(frozen=True)
class ProblemSpec:
    poly: Polyhedron
    bc: BoundaryAssignment
    flags: DataFlags = DataFlags()
    kind: str = "navier-stokes"  # or "stokes"
    vertex_bounds: Dict[int, VertexBound] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("navier-stokes", "stokes"):
            raise ValueError("problem kind must be 'navier-stokes' or 'stokes'")
        if len(self.bc.d) != len(self.poly.faces):
            raise ValueError("boundary assignment does not match the face count")

    @functools.cached_property
    def findings(self) -> Dict[int, StripFinding]:
        """:func:`vertex_findings` of this spec, computed on first use: every
        target checked or scanned on the spec reads the same findings."""
        return vertex_findings(self)

    @functools.cached_property
    def _exponents(self) -> Dict[tuple, Tuple[Optional[MuValue], str]]:
        """What :func:`_edge_exponent` returned, by (quantity, sorted pair,
        theta, numeric_n): the edges of one wedge share one computation."""
        return {}


@dataclass(frozen=True)
class RegularityQuery:
    """A single target with its integrability/Holder exponent and weights.

    ``beta``/``delta`` may be scalars (broadcast) or per-vertex/per-edge
    tuples; entries may carry a symbolic epsilon.
    """

    target: str
    s: Optional[Union[float, Fraction]] = None
    sigma: Optional[Union[float, Fraction]] = None
    beta: Union[float, Fraction, Eps, Tuple] = 0
    delta: Union[float, Fraction, Eps, Tuple] = 0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError("target must be one of %s" % (TARGETS,))
        if self.target in ("W1", "W2", "EXIST"):
            if self.s is None or not self.s > 1:
                raise ValueError("Sobolev targets need s > 1")
            try:
                float(self.s)  # the report carries s as a float
            except OverflowError:
                raise ValueError("s must lie in the float range (up to 1.8e308)") from None
        else:
            if self.sigma is None or not 0 < self.sigma < 1:
                raise ValueError("Holder targets need sigma in (0, 1)")

    def betas(self, n: int) -> Tuple[Eps, ...]:
        b = self.beta if isinstance(self.beta, (tuple, list)) else (self.beta,) * n
        if len(b) != n:
            raise ValueError("beta must have one entry per vertex")
        return tuple(as_eps(x) for x in b)

    def deltas(self, m: int) -> Tuple[Eps, ...]:
        d = self.delta if isinstance(self.delta, (tuple, list)) else (self.delta,) * m
        if len(d) != m:
            raise ValueError("delta must have one entry per edge")
        return tuple(as_eps(x) for x in d)

    def is_nonweighted(self) -> bool:
        bs = self.beta if isinstance(self.beta, (tuple, list)) else (self.beta,)
        ds = self.delta if isinstance(self.delta, (tuple, list)) else (self.delta,)
        return all(as_eps(x) == 0 for x in bs) and all(as_eps(x) == 0 for x in ds)


@dataclass(frozen=True)
class EdgeCheck:
    edge: int
    theta: float
    mu: float
    mu_provenance: str
    requirement: str
    satisfied: bool


@dataclass(frozen=True)
class VertexCheck:
    vertex: int
    finding: str
    requirement: str
    satisfied: bool
    justification: str


@dataclass
class RegularityReport:
    target: str
    verdict: str  # 'holds' | 'fails' | 'unknown'
    s: Optional[float] = None
    sigma: Optional[float] = None
    edges: List[EdgeCheck] = field(default_factory=list)
    vertices: List[VertexCheck] = field(default_factory=list)
    s_interval: Optional[Interval] = None
    binding: str = ""
    sharp: List[str] = field(default_factory=list)
    assumptions: List[str] = field(default_factory=list)
    citations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "verdict": self.verdict,
            "s": None if self.s is None else float(self.s),
            "sigma": None if self.sigma is None else float(self.sigma),
            "edges": [{"edge": e.edge, "theta": e.theta, "mu": e.mu,
                       "mu_provenance": e.mu_provenance, "requirement": e.requirement,
                       "satisfied": e.satisfied} for e in self.edges],
            "vertices": [{"vertex": v.vertex, "finding": v.finding,
                          "requirement": v.requirement, "satisfied": v.satisfied,
                          "justification": v.justification} for v in self.vertices],
            "s_interval": None if self.s_interval is None else self.s_interval.to_dict(),
            "binding": self.binding,
            "sharp": list(self.sharp),
            "assumptions": list(self.assumptions),
            "citations": list(self.citations),
            "notes": list(self.notes),
        }

    @staticmethod
    def from_dict(d: dict) -> "RegularityReport":
        rep = RegularityReport(d["target"], d["verdict"], d.get("s"), d.get("sigma"))
        rep.edges = [EdgeCheck(**e) for e in d["edges"]]
        rep.vertices = [VertexCheck(**v) for v in d["vertices"]]
        if d.get("s_interval") is not None:
            rep.s_interval = Interval.from_dict(d["s_interval"])
        rep.binding = d.get("binding", "")
        rep.sharp = list(d.get("sharp", []))
        rep.assumptions = list(d.get("assumptions", []))
        rep.citations = list(d.get("citations", []))
        rep.notes = list(d.get("notes", []))
        return rep


# -- shared helpers ---------------------------------------------------------------

def _slip_class(spec: ProblemSpec) -> bool:
    """Exactly one slip face in an otherwise velocity-prescribed convex solid,
    with every edge of the slip face opening below pi/2 (the R5 configuration)."""
    ds = spec.bc.values()
    slip_faces = [k for k, d in enumerate(ds) if d == 2]
    if len(slip_faces) != 1 or any(d not in (0, 2) for d in ds):
        return False
    if not spec.poly.is_convex():
        return False
    k = slip_faces[0]
    return all(e.theta < 0.5 * math.pi for e in spec.poly.edges if k in e.adjacent_faces)


def vertex_findings(spec: ProblemSpec) -> Dict[int, StripFinding]:
    slip_class = _slip_class(spec)
    findings = {}
    for v in range(len(spec.poly.vertices)):
        cone = spec.poly.vertex_cone(v)
        incident = [spec.bc.d[k] for k in spec.poly.incident_faces(v)]
        pairs = [spec.bc.pair(e) for e in spec.poly.incident_edges(v)]
        finding = eigenfree_strip(
            cone, incident, pairs, spec.vertex_bounds.get(v),
            lipschitz_graph=spec.flags.lipschitz_graph, slip_class=slip_class)
        if spec.flags.lipschitz_graph and "R3" in finding.rules and \
                not graph_direction_feasible(cone.normals):
            # the flag is honored (it is an assumption, never tested by the
            # source results) but the heuristic disagreement is surfaced: in
            # the finding, and as a note of every report (_unconfirmed_notes)
            finding = StripFinding(finding.vertex, finding.free, finding.exceptional,
                                   finding.rules, finding.assumptions + (_UNCONFIRMED,))
        findings[v] = finding
    return findings


_UNCONFIRMED = ("graph-direction heuristic could not confirm the Lipschitz assumption "
                "at this vertex")


def _unconfirmed_notes(spec: ProblemSpec) -> List[str]:
    """A note per vertex whose asserted Lipschitz-graph flag the heuristic
    could not confirm: a finding with a rule prints no assumptions."""
    return ["vertex %d: %s" % (v, _UNCONFIRMED) for v, f in spec.findings.items()
            if _UNCONFIRMED in f.assumptions]


def _edge_exponent(spec: ProblemSpec, edge: Edge, rule: _Rule,
                   numeric_n: int) -> Tuple[Optional[MuValue], str]:
    """The rule's exponent at one edge, or None and the reason when no
    window certifies it; computed once per spec for each wedge.  The key
    holds the sorted pair, on which :func:`edge_exponent` depends alone,
    and the exact opening, so an edge reads the value it would compute
    itself."""
    quantity = "lambda1" if rule.kind == "existence" else "mu"
    d_plus, d_minus = sorted(spec.bc.pair(edge))
    key = (quantity, d_plus, d_minus, edge.theta, numeric_n)
    memo = spec._exponents
    if key not in memo:
        try:
            memo[key] = edge_exponent(quantity, d_plus, d_minus, edge.theta, n=numeric_n), ""
        except WindowError as exc:
            memo[key] = None, "exponent not certified: %s" % exc
    return memo[key]


def _require_velocity_edges(spec: ProblemSpec, detail: str = "") -> None:
    for e in spec.poly.edges:
        if 0 not in spec.bc.pair(e):
            raise ValueError("edge %d has no velocity-prescribed adjoining face%s"
                             % (e.id, detail))


def _strip_for(level: Eps, anchor_closed: bool) -> Interval:
    """Strip between the energy line and the level line (closed there),
    whichever order."""
    anchor = as_eps(_ENERGY_LINE)
    if level >= anchor:
        return Interval(anchor, level, anchor_closed, True)
    return Interval(level, anchor, True, anchor_closed)


# -- the rule table -----------------------------------------------------------------

@dataclass(frozen=True)
class _Floor:
    """A window for s, or for each vertex or edge weight shifted by +3/s
    (Sobolev rows) or -sigma (Holder rows).  A value outside it adds ``note``,
    formatted with the vertex or edge index.  ``scan`` names the floor in
    ``max_s``: its label, and a note for a nonlinear-only floor (the edge
    window implies it at zero weights)."""

    scope: str  # 's' | 'vertex' | 'edge'
    window: Interval
    note: str
    nonlinear_only: bool = False
    scan: str = ""


@dataclass(frozen=True)
class _Rule:
    """One target of the source results, as data.

    ``kind`` fixes how the conditions read.  The 'sobolev' and 'existence'
    rows shift the edge weights by 2/s and the vertex weights by -3/s, and a
    matching class row certifies their nonweighted vertices without a rule.
    'holder' rows centre both at sigma, need nonnegative edge weights off the
    resonances k + sigma (k < order), and leave the vertex strip open at -1/2.

    The edge condition is order - mu < weighted < order; 'sobolev' rows clamp
    its lower end at 0 (the weighted quantity is positive).  The 'existence'
    row reads the window 1 - Re(lambda1) < weighted < 1 + Re(lambda1)
    instead, strict at both ends because the first-eigenvalue bounds may be
    attained; it needs a velocity-prescribed face at every edge, and it is
    the one row that does not name a guaranteed eigenvalue as the reason a
    vertex fails.
    """

    target: str
    kind: str  # 'sobolev' | 'holder' | 'existence'
    order: int
    edge_requirement: str  # formatted with the weighted edge quantity
    flags: Tuple[Tuple[str, str, Optional[Callable[[ProblemSpec], bool]]], ...]
    floors: Tuple[_Floor, ...] = ()


_DATA = ("data_in_required_spaces", "data in the required spaces", None)
_LIFTING = ("compatibility_conditions_hold",
            "edge compatibility conditions (existence of a lifting)", None)


def _above(x: Fraction, closed: bool = False) -> Interval:
    return Interval(x, INF, closed, True)


def _below(x: Fraction, closed: bool = False) -> Interval:
    return Interval(-INF, x, True, closed)


def _holder_cap(cap: Fraction) -> _Floor:
    return _Floor("vertex", _below(cap), "vertex {}: beta - sigma must stay below %s" % cap)


_RULES = {rule.target: rule for rule in (
    _Rule("W1", "sobolev", 1, "max(1-mu, 0) < delta+2/s=%s < 1", (_DATA,),
          floors=(_Floor("s", _above(Fraction(6, 5)),
                         "nonlinear first-order result needs s > 6/5", nonlinear_only=True,
                         scan="nonlinear floor s > 6/5 subsumed by s > 2"),)),
    _Rule("W2", "sobolev", 2, "max(2-mu, 0) < delta+2/s=%s < 2", (_DATA, _LIFTING)),
    _Rule("C1", "holder", 1, "1-mu < delta-sigma=%s < 1", (_DATA, _LIFTING),
          floors=(_holder_cap(Fraction(3, 2)),)),
    _Rule("C2", "holder", 2, "2-mu < delta-sigma=%s < 2", (_DATA, _LIFTING),
          floors=(_holder_cap(Fraction(5, 2)),)),
    _Rule("EXIST", "existence", 1, "1-Re(lambda1) < delta+2/s=%s < 1+Re(lambda1)",
          (_DATA, ("small_data", "data norm sufficiently small", None),
           ("compatibility_conditions_hold",
            "flux compatibility for the velocity/slip-only configuration",
            lambda sp: _all_d(sp, 0, 2))),
          floors=(_Floor("s", _above(Fraction(3, 2)), "existence result needs s > 3/2",
                         scan="existence needs s > 3/2"),
                  _Floor("vertex", _below(Fraction(2), True),
                         "vertex {}: beta + 3/s must not exceed 2"),
                  _Floor("edge", _below(Fraction(2), True),
                         "edge {}: delta + 3/s must not exceed 2"))),
)}


# -- the conditions, each stated once -------------------------------------------------
#
# ``check`` tests the query's terms against these windows; ``max_s`` maps the
# same windows to s at zero weights through ``_s_window``.

_NOWHERE = Interval(Fraction(1), Fraction(1))
# no class bound limits it: its window holds every value a sharper exponent could reach
_UNBOUNDED = MuValue(INF, "class-bound", "lambda1", True, bound=INF)


def _flags(rule: _Rule, spec: ProblemSpec) -> List[Tuple[str, bool]]:
    """(name, asserted) of every data flag the rule echoes for this spec."""
    return [(name, getattr(spec.flags, attr)) for attr, name, applies in rule.flags
            if applies is None or applies(spec)]


def _edge_window(rule: _Rule, mu: MuValue) -> Interval:
    """Admissible values of the weighted edge quantity (delta + 2/s, or
    delta - sigma).

    An exact exponent or a class bound enters as its exact rational where it
    has one.  The exponent exceeds a class bound strictly, so
    order - bound <= weighted already gives the strict inequality for the
    exponent itself; an exact exponent keeps that end open.
    """
    b = mu.value if mu.bound is None else mu.bound
    if rule.kind == "existence":
        return Interval(rule.order - b, rule.order + b)
    lo, lo_closed = rule.order - b, mu.is_lower_bound
    if rule.kind == "sobolev" and not lo > 0:
        lo, lo_closed = 0, False
    return Interval(lo, rule.order, lo_closed, False)


def _level_window(finding: StripFinding, anchor_closed: bool) -> Interval:
    """The vertex condition as a window of the level L: the strip between the
    energy line and L is certified free iff L lies in it (the certified strip
    minus its exceptional eigenvalues; empty when no rule applies).  The
    catalogue is exact, so the window's ends are too, save an R6 user bound."""
    free, anchor = finding.free, _ENERGY_LINE
    if finding.unknown or not free.contains_interval(
            Interval(anchor, anchor, anchor_closed, anchor_closed)):
        return _NOWHERE
    window = free
    for value, _ in finding.exceptional:
        if value != anchor:
            window = window.intersect(_below(value) if value > anchor else _above(value))
        elif anchor_closed:
            return _NOWHERE
    return window


def _row_fallback(spec: ProblemSpec, target: str) -> Optional[DecisionRow]:
    """The matching class row with the widest upper end, if some vertex has
    no rule; the rows of one target share their lower end, so it contains
    every other matching row."""
    rows = matching_rows(spec, target) if any(f.unknown for f in spec.findings.values()) else ()
    return max(rows, key=lambda row: row.interval.hi_key, default=None)


def _quotient(k: int, q, up: bool):
    """k/q as an interval end, exact for a rational q.  A float q comes only
    from an irrational exponent (``mu_real_root``, off-grid or numeric values)
    or a user bound; a float quotient that rounded the wrong way (so that the
    check at the end itself would contradict its openness) moves one float
    ``up`` or down."""
    if not isinstance(q, float):
        return Fraction(k) / q
    s = k / q
    (ns, ds), (nq, dq) = s.as_integer_ratio(), q.as_integer_ratio()
    error = ns * nq - k * ds * dq  # s*q - k, times the positive ds*dq
    if error == 0 or ((error > 0) == (q > 0)) == up:  # exact, or s on the side asked
        return s
    return math.nextafter(s, math.inf if up else -math.inf)


def _s_window(window: Interval, c, k) -> Interval:
    """The s in (1, inf] with c + k/s in ``window`` (k != 0)."""
    lo, hi = (window.lo, window.lo_closed), (window.hi, window.hi_closed)
    if k < 0:
        lo, hi = hi, lo
    # 1/s = (x - c)/k runs from the end ``lo`` up to the end ``hi``; a closed
    # end rounds into the interval, an open one out of it
    (a, a_closed), (b, b_closed) = lo, hi
    if not (b - c) * k > 0:
        return _NOWHERE
    s_hi = (_quotient(k, a - c, not a_closed), a_closed) if (a - c) * k > 0 else (INF, True)
    return _EVERYTHING.intersect(
        Interval(_quotient(k, b - c, b_closed), s_hi[0], b_closed, s_hi[1]))


# -- the theorem checks -------------------------------------------------------------

def check(spec: ProblemSpec, query: RegularityQuery, numeric_n: int = 32) -> RegularityReport:
    rule = _RULES[query.target]
    holder = rule.kind == "holder"
    if rule.kind == "existence":
        _require_velocity_edges(
            spec, "; the small-data existence result requires one on every edge")
    rep = RegularityReport(rule.target, "unknown")
    if holder:
        rep.sigma = float(query.sigma)
        sigma = as_eps(query.sigma)
    else:
        rep.s = float(query.s)
        inv = Fraction(1) / Fraction(query.s) if isinstance(query.s, (int, Fraction)) \
            else 1.0 / query.s
        two_s, three_s = as_eps(2 * inv), as_eps(3 * inv)
    flags = _flags(rule, spec)
    rep.assumptions = ["%s: %s" % (name, "asserted" if ok else "NOT asserted")
                       for name, ok in flags]
    missing = [name for name, ok in flags if not ok]
    betas = query.betas(len(spec.poly.vertices))
    deltas = query.deltas(len(spec.poly.edges))
    floors_ok = True
    for floor in rule.floors:
        if floor.nonlinear_only and spec.kind != "navier-stokes":
            continue
        values = {"s": (query.s,), "vertex": betas, "edge": deltas}[floor.scope]
        for i, x in enumerate(values):
            if floor.scope != "s":
                x = x - sigma if holder else x + three_s
            if not floor.window.contains(x):
                floors_ok = False
                rep.notes.append(floor.note.format(i))
    edges_ok, any_unknown = True, False
    for e, dk in zip(spec.poly.edges, deltas):
        if holder and (dk < 0 or any(dk == as_eps(k) + sigma for k in range(rule.order))):
            why = ("edge weights must be nonnegative" if dk < 0
                   else "delta equals an excluded resonance value")
            rep.edges.append(EdgeCheck(e.id, e.theta, 0.0, "-", why, False))
            edges_ok = False
            continue
        mu, why = _edge_exponent(spec, e, rule, numeric_n)
        if mu is None:
            rep.edges.append(EdgeCheck(e.id, e.theta, 0.0, "-", why, False))
            any_unknown = True
            continue
        weighted = dk - sigma if holder else dk + two_s
        ok = _edge_window(rule, mu).contains(weighted)
        rep.edges.append(EdgeCheck(e.id, e.theta, mu.value, mu.provenance,
                                   rule.edge_requirement % weighted, ok))
        if not ok and mu.is_lower_bound and _edge_window(rule, _UNBOUNDED).contains(weighted):
            # a larger exponent would meet the window: the bound certifies nothing
            any_unknown = True
            rep.notes.append("edge %d: the guaranteed exponent bound could not certify "
                             "the condition; a numeric pencil solve may sharpen it" % e.id)
        else:
            edges_ok = edges_ok and ok
    # vertices: no eigenvalues in the strip between -1/2 and the level line
    findings = spec.findings
    guaranteed = known_exceptional(spec.bc.values())
    row = _row_fallback(spec, rule.target) if not holder and query.is_nonweighted() else None
    vertices_ok, definite_fail = True, False
    for v, b in enumerate(betas):
        f = findings[v]
        level = (as_eps(rule.order) + sigma - b if holder
                 else as_eps(rule.order) - b - three_s)
        target = _strip_for(level, anchor_closed=not holder)
        ok = _level_window(f, not holder).contains(level)
        why = strip_condition_holds(f, target)[1]  # the explanation of that verdict
        if not ok and f.unknown and row is not None and row.interval.contains(query.s):
            ok, why = True, "class result %s: admissible interval %s" % (row.row_id, row.interval)
            rep.citations.append("class:%s" % row.row_id)
        if not ok and any(target.contains(g) for g in guaranteed):
            definite_fail = True
            if rule.kind != "existence":
                why += "; a guaranteed eigenvalue of this configuration lies in the strip"
        elif not ok and f.unknown:
            any_unknown = True
        rep.vertices.append(VertexCheck(v, f.describe(), str(target), ok, why))
        vertices_ok = vertices_ok and ok
        rep.citations.extend("vertex-rule:%s" % r for r in f.rules)
    rep.citations = sorted(set(rep.citations))
    rep.notes.extend(_unconfirmed_notes(spec))
    if missing:
        any_unknown = True
        rep.notes.extend("assumption not asserted: %s" % m for m in missing)
    if definite_fail or not (edges_ok and floors_ok):
        rep.verdict = "fails"
    elif not any_unknown:
        rep.verdict = "holds" if vertices_ok else "fails"
    return sharpness_flags(rep)


# -- admissible interval scan ----------------------------------------------------

def max_s(spec: ProblemSpec, target: str, numeric_n: int = 32) -> RegularityReport:
    """Admissible nonweighted s-interval for a first/second-order or existence
    target, with the binding constraint named.

    The constraints are the windows ``check`` tests, read at zero weights; a
    vertex admits the s its strip certifies, or, when no rule covers it,
    those of the widest matching class row.
    """
    if target not in ("W1", "W2", "EXIST"):
        raise ValueError("max_s supports W1, W2 and EXIST")
    rule = _RULES[target]
    existence = rule.kind == "existence"
    if existence:
        _require_velocity_edges(spec)
    rep = RegularityReport(target, "holds")
    # (admissible s, label of the lower end, label of the upper end)
    constraints: List[Tuple[Interval, str, str]] = []
    for floor in rule.floors:
        if floor.nonlinear_only and spec.kind != "navier-stokes":
            continue
        if floor.nonlinear_only:
            rep.notes.append(floor.scan)
        label = floor.scan or floor.note.format("*")
        iv = floor.window if floor.scope == "s" else _s_window(floor.window, 0, 3)
        constraints.append((iv, label, label))
    uncertified_edges = False
    windows: Dict[MuValue, Interval] = {}  # the edges of one wedge share a window
    for e in spec.poly.edges:
        mu, why = _edge_exponent(spec, e, rule, numeric_n)
        label = "edge %d (theta=%.6g)" % (e.id, e.theta)
        if existence:
            req, lo_label = "weight window around the first eigenvalue", label
        else:
            req = "s below 2/(%d - mu) when mu < %d" % (rule.order, rule.order)
            # the upper end of the window does not depend on the exponent
            lo_label = "edge weight window delta+2/s < %d at zero weights" % rule.order
        if mu is None:
            uncertified_edges = True
            rep.edges.append(EdgeCheck(e.id, e.theta, 0.0, "-", why, False))
            rep.notes.append("edge %d: %s; the interval ignores this edge" % (e.id, why))
            if not existence:
                constraints.append((_s_window(_below(rule.order), 0, 2), lo_label, label))
            continue
        if mu.is_lower_bound and not existence:
            label = "edge %d via guaranteed bound mu > %s" % (e.id, mu.bound)
        rep.edges.append(EdgeCheck(e.id, e.theta, mu.value, mu.provenance, req, True))
        if mu not in windows:
            windows[mu] = _s_window(_edge_window(rule, mu), 0, 2)
        constraints.append((windows[mu], lo_label, label))
    conditional = False
    row = _row_fallback(spec, target)  # every row max_s scans has the class-row fallback
    for v, f in spec.findings.items():
        if f.unknown and row is None:
            conditional = True
            rep.vertices.append(VertexCheck(v, f.describe(), "-", False,
                                            "no rule; interval conditional on overrides"))
            continue
        if f.unknown:
            iv, label = row.interval, "vertex %d (no rule) by class result %s" % (v, row.row_id)
            rep.citations.append("class:%s" % row.row_id)
        else:
            iv = _s_window(_level_window(f, True), rule.order, -3)
            label = "vertex %d strip %s" % (v, f.free)
        rep.vertices.append(VertexCheck(v, f.describe(), str(iv), True, label))
        constraints.append((iv, label, label))
    # name the ends of the interval by the constraints that set them
    result = _EVERYTHING
    binding_lo = binding_hi = "none"
    for iv, lo_label, hi_label in constraints:
        before = result
        result = result.intersect(iv)
        if result.hi_key != before.hi_key:
            binding_hi = hi_label
        if result.lo_key != before.lo_key:
            binding_lo = lo_label
    rep.s_interval = result
    rep.binding = "upper: %s; lower: %s" % (binding_hi, binding_lo)
    missing = [name for name, ok in _flags(rule, spec) if not ok]
    rep.verdict = "unknown" if conditional or uncertified_edges or missing \
        or result.is_empty() else "holds"
    if conditional:
        rep.notes.append("some vertex strips are uncertified; supply override bounds")
    rep.notes.extend(_unconfirmed_notes(spec))
    rep.notes.extend("assumption not asserted: %s" % m for m in missing)
    rep.notes.append(
        "monotone closure: on a bounded domain the conclusion spaces include one "
        "another as s decreases, so the stated conclusions persist below the "
        "reported interval; the reported endpoints are the theorem-exact ones")
    rep.citations = sorted(set(rep.citations))
    return sharpness_flags(rep)


# -- decision table ---------------------------------------------------------------

@dataclass(frozen=True)
class DecisionRow:
    """One class-level worked-example result with exact rational endpoints."""

    row_id: str
    target: str
    description: str
    interval: Interval
    matches: Callable[[ProblemSpec], bool]
    derivation: str

    def to_dict(self):
        return {"row_id": self.row_id, "target": self.target,
                "description": self.description,
                "interval": self.interval.to_dict(), "derivation": self.derivation}


def _all_d(spec: ProblemSpec, *allowed) -> bool:
    return set(spec.bc.values()) <= set(allowed)


def _changed_edges(spec: ProblemSpec):
    return [e for e in spec.poly.edges
            if spec.bc.pair(e)[0] != spec.bc.pair(e)[1]]


def _dirichlet_adjacent(spec: ProblemSpec) -> bool:
    return all(0 in spec.bc.pair(e) for e in spec.poly.edges)


def _bounds_reach(spec: ProblemSpec, bound: Fraction, edges=None) -> bool:
    """Every edge (of ``edges``, if given) has a guaranteed exponent bound of
    at least ``bound`` in the class-bound table."""
    for e in spec.poly.edges if edges is None else edges:
        mu = class_bound("mu", *spec.bc.pair(e), e.theta)
        if mu is None or mu.bound < bound:
            return False
    return True


@functools.cache  # the rows are immutable; build them once
def decision_table() -> Tuple[DecisionRow, ...]:
    F = Fraction
    rows = [
        DecisionRow(
            "velocity-any-W1", "W1",
            "velocity prescribed everywhere, arbitrary polyhedron",
            Interval(F(2), F(3), False, True),
            lambda sp: _all_d(sp, 0),
            "edge exponents exceed 1/2 (upper edge limit 4); the generic vertex "
            "strip [-1/2, 0] caps 1-3/s at 0, closed endpoint s = 3"),
        DecisionRow(
            "velocity-convex-W1", "W1",
            "velocity prescribed everywhere, convex polyhedron",
            Interval(F(2), INF, False, True),
            lambda sp: _all_d(sp, 0) and sp.poly.is_convex(),
            "edge exponents exceed 1; half-space vertex strip [-1/2, 1) never "
            "caps 1-3/s; only the weight window s > 2 remains"),
        DecisionRow(
            "velocity-any-W2", "W2",
            "velocity prescribed everywhere, arbitrary polyhedron",
            Interval(F(1), F(4, 3), False, True),
            lambda sp: _all_d(sp, 0),
            "edge exponents exceed 1/2: 2/s must reach 3/2, closed endpoint 4/3"),
        DecisionRow(
            "velocity-any-W2-narrow", "W2",
            "velocity prescribed everywhere, edge openings below the 2/3-threshold angle",
            Interval(F(1), F(3, 2), False, True),
            lambda sp: _all_d(sp, 0) and _bounds_reach(sp, F(2, 3)),
            "edge exponents exceed 2/3: closed endpoint 3/2"),
        DecisionRow(
            "velocity-convex-W2", "W2",
            "velocity prescribed everywhere, convex polyhedron",
            Interval(F(1), F(2), False, True),
            lambda sp: _all_d(sp, 0) and sp.poly.is_convex(),
            "edge exponents exceed 1: closed endpoint 2; the half-space vertex "
            "strip allows s < 3, not binding"),
        DecisionRow(
            "velocity-convex-W2-narrow", "W2",
            "velocity prescribed everywhere, convex, edge openings below 3*pi/4",
            Interval(F(1), F(3), False, False),
            lambda sp: _all_d(sp, 0) and sp.poly.is_convex() and _bounds_reach(sp, F(4, 3)),
            "edge exponents exceed 4/3 (edge endpoint 3, closed); the constant-"
            "pressure vertex eigenvalue at 1 makes 2-3/s = 1 inadmissible: open 3"),
        DecisionRow(
            "stress-lipschitz-W1", "W1",
            "stress prescribed everywhere, Lipschitz-graph polyhedron",
            Interval(F(2), F(3), False, False),
            lambda sp: _all_d(sp, 3) and sp.flags.lipschitz_graph,
            "vertex strip [-1, 0] contains the exceptional eigenvalue 0, so "
            "1-3/s = 0 is inadmissible: open endpoint 3"),
        DecisionRow(
            "stress-lipschitz-W2", "W2",
            "stress prescribed everywhere, Lipschitz-graph polyhedron",
            Interval(F(1), F(4, 3), False, True),
            lambda sp: _all_d(sp, 3) and sp.flags.lipschitz_graph,
            "edge exponents exceed 1/2: closed endpoint 4/3 (vertex cap 3/2 "
            "open from the exceptional eigenvalue 0 is not binding)"),
        DecisionRow(
            "stress-lipschitz-W2-narrow", "W2",
            "stress everywhere, edge openings below the 2/3-threshold angle",
            Interval(F(1), F(3, 2), False, False),
            lambda sp: _all_d(sp, 3) and sp.flags.lipschitz_graph and _bounds_reach(sp, F(2, 3)),
            "edge endpoint 3/2 closed meets the open vertex cap 3/2 at the "
            "exceptional eigenvalue 0: open endpoint 3/2"),
        DecisionRow(
            "velocity-stress-W2", "W2",
            "velocity or stress on each face, both present",
            Interval(F(1), F(8, 7), False, True),
            lambda sp: _all_d(sp, 0, 3) and len(set(sp.bc.values())) == 2,
            "changed edges carry exponent above 1/4: 2/s must reach 7/4, "
            "closed endpoint 8/7"),
        DecisionRow(
            "no-stress-mixed-W1", "W1",
            "conditions of index <= 2, velocity on one side of every edge",
            Interval(F(2), F(8, 3), False, True),
            lambda sp: _all_d(sp, 0, 1, 2) and len(set(sp.bc.values())) >= 2
            and _dirichlet_adjacent(sp),
            "changed edges carry exponent above 1/4: 2/s must reach 3/4, closed "
            "endpoint 8/3; vertex strip [-1, 0] caps at 3, not binding"),
        DecisionRow(
            "no-stress-mixed-W1-narrow", "W1",
            "as above with changed edges opening below 3*pi/2",
            Interval(F(2), F(3), False, True),
            lambda sp: _all_d(sp, 0, 1, 2) and len(set(sp.bc.values())) >= 2
            and _dirichlet_adjacent(sp) and _bounds_reach(sp, F(1, 3), _changed_edges(sp)),
            "changed edges carry exponent above 1/3: edge endpoint 3 closed, "
            "agreeing with the vertex cap 3"),
        DecisionRow(
            "no-stress-mixed-W2", "W2",
            "conditions of index <= 2, velocity on one side of every edge",
            Interval(F(1), F(8, 7), False, True),
            lambda sp: _all_d(sp, 0, 1, 2) and len(set(sp.bc.values())) >= 2
            and _dirichlet_adjacent(sp),
            "changed edges carry exponent above 1/4: closed endpoint 8/7"),
        DecisionRow(
            "no-stress-mixed-W2-narrow", "W2",
            "as above with the angle conditions that push every exponent above 2/3",
            Interval(F(1), F(3, 2), False, True),
            lambda sp: _all_d(sp, 0, 1, 2) and len(set(sp.bc.values())) >= 2
            and _dirichlet_adjacent(sp) and _bounds_reach(sp, F(2, 3)),
            "every edge exponent exceeds 2/3: closed endpoint 3/2"),
        DecisionRow(
            "slip-one-face-W2", "W2",
            "convex, velocity everywhere except one slip face with edges below pi/2",
            Interval(F(1), F(2), False, True),
            lambda sp: _slip_class(sp),
            "every edge exponent exceeds 1: closed endpoint 2; the vertex strip "
            "[-1/2, 1] minus the simple eigenvalue 1 is not binding"),
        DecisionRow(
            "slip-one-face-W2-narrow", "W2",
            "as above with slip edges below 3*pi/8 and the rest below 3*pi/4",
            Interval(F(1), F(3), False, False),
            lambda sp: _slip_class(sp) and _bounds_reach(sp, F(4, 3)),
            "every edge exponent exceeds 4/3 (edge endpoint 3 closed); the "
            "simple vertex eigenvalue at 1 makes 2-3/s = 1 inadmissible: open 3"),
        DecisionRow(
            "existence-velocity", "EXIST",
            "velocity prescribed everywhere, arbitrary polyhedron",
            Interval(F(3, 2), F(3), False, False),
            lambda sp: _all_d(sp, 0),
            "first edge eigenvalues are bounded below by 1/3 (class bound, "
            "attainable in the limit): strict window 3/2 < s < 3; the mixed "
            "vertex strip [-1, 0] gives the same closed range [3/2, 3]"),
        DecisionRow(
            "existence-no-stress-mixed", "EXIST",
            "conditions of index <= 2, velocity on one side of every edge, "
            "changed edges opening at most 3*pi/2",
            Interval(F(3, 2), F(3), False, False),
            lambda sp: _all_d(sp, 0, 1, 2) and _dirichlet_adjacent(sp) and all(
                class_bound("lambda1", *sp.bc.pair(e), e.theta) is not None
                for e in _changed_edges(sp)),
            "first edge eigenvalues are bounded below by 1/3 with equality "
            "approachable at opening 3*pi/2: strict window 3/2 < s < 3"),
    ]
    return tuple(rows)


def matching_rows(spec: ProblemSpec, target: Optional[str] = None) -> Tuple[DecisionRow, ...]:
    return tuple(r for r in decision_table()
                 if (target is None or r.target == target) and r.matches(spec))


# -- sharpness annotations -----------------------------------------------------------

def sharpness_flags(report: RegularityReport) -> RegularityReport:
    """Mark the weight-window lower boundaries that cannot be weakened."""
    if report.target == "W2":
        report.sharp = [
            "edge condition: the lower bound delta_k + 2/s > 2 - mu_k cannot be weakened",
            "vertex condition: the lower bound beta_j + 3/s > 2 - Re(smallest "
            "eigenvalue above -1/2) cannot be weakened",
        ]
    elif report.target in ("W1", "C1", "C2"):
        report.sharp = [
            "weight-window lower bounds are sharp by the same counterexample "
            "construction (stated for the first-order and Holder results)",
        ]
    else:
        report.sharp = []
    return report
