"""Mechanical evaluation of the regularity and small-data existence results.

Each check is a conjunction of decidable conditions: per-edge inequalities on
the edge exponents, per-vertex eigenvalue-free-strip containments, explicit
integrability floors, and data-class assumption flags (which are echoed, never
inferred).  Verdicts are three-valued: ``holds`` when everything is certified,
``fails`` when a condition is violated outright (including a guaranteed
eigenvalue sitting inside a required strip), ``unknown`` when certification is
out of reach (e.g. no vertex rule applies, or no window certifies an edge
exponent).

Every target is one row of a rule table (``_RULES``) evaluated by one
procedure, ``_evaluate``.  ``max_s`` scans the admissible nonweighted
integrability interval from the same rows and names the binding constraint.
``decision_table`` reproduces the worked-example class results (classes of
domains and condition patterns, with exact rational interval endpoints);
checks fall back to a matching table row when the per-vertex rules alone
cannot certify a nonweighted query.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .edge_pencil import MuValue, WindowError, lambda1_of_edge, mu_k, mu_lower_bound
from .geometry import (BoundaryAssignment, Edge, Polyhedron, VertexBound,
                       graph_direction_feasible)
from .spaces import Eps, as_eps
from .vertex_pencil import (INF, Interval, StripFinding, eigenfree_strip,
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
            "edges": [asdict(e) for e in self.edges],
            "vertices": [asdict(v) for v in self.vertices],
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
    return all(e.theta < 0.5 * math.pi - 1e-12
               for e in spec.poly.edges if k in e.adjacent_faces)


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
            # source results) but the heuristic disagreement is surfaced
            finding = StripFinding(finding.vertex, finding.free, finding.exceptional,
                                   finding.rules, finding.assumptions +
                                   ("graph-direction heuristic could not confirm the "
                                    "Lipschitz assumption at this vertex",))
        findings[v] = finding
    return findings


def _edge_mu(spec: ProblemSpec, edge: Edge, numeric_n: int = 32) -> MuValue:
    """Exact exponent for the equal-condition pairs, guaranteed bound for the
    mixed pairs covered by one, numeric solve otherwise.

    Bounds are deliberately not refined numerically: point checks and the
    interval scan must agree, and the scan's exact rational endpoints come
    from the bounds.
    """
    d_plus, d_minus = spec.bc.pair(edge)
    pair = tuple(sorted((d_plus, d_minus)))
    if pair in ((0, 0), (3, 3)):
        return mu_k(spec.poly, spec.bc, edge)
    bound = mu_lower_bound(d_plus, d_minus, edge.theta)
    if bound is not None:
        return bound
    return mu_k(spec.poly, spec.bc, edge, method="numeric", n=numeric_n)


def _edge_exponent(spec: ProblemSpec, edge: Edge, rule: _Rule,
                   numeric_n: int) -> Tuple[Optional[MuValue], str]:
    """The rule's exponent at one edge, or None and the reason when no
    window certifies it."""
    try:
        if rule.first_eigenvalue:
            return lambda1_of_edge(*spec.bc.pair(edge), edge.theta, n=numeric_n), ""
        return _edge_mu(spec, edge, numeric_n), ""
    except WindowError as exc:
        return None, "exponent not certified: %s" % exc


def _require_velocity_edges(spec: ProblemSpec, detail: str = "") -> None:
    for e in spec.poly.edges:
        if 0 not in spec.bc.pair(e):
            raise ValueError("edge %d has no velocity-prescribed adjoining face%s"
                             % (e.id, detail))


def _strip_for(level: Eps, anchor_closed: bool) -> Interval:
    """Strip between the energy line -1/2 and the level line (closed there),
    whichever order."""
    anchor = as_eps(Fraction(-1, 2))
    if level >= anchor:
        return Interval(anchor, level, anchor_closed, True)
    return Interval(level, anchor, True, anchor_closed)


# -- the rule table -----------------------------------------------------------------

class _Terms(NamedTuple):
    """The query's exponent terms: 2/s and 3/s (Sobolev rows) or sigma (Holder)."""

    two_s: Optional[Eps]
    three_s: Optional[Eps]
    sigma: Optional[Eps]


@dataclass(frozen=True)
class _Floor:
    """A floor on s, on each vertex weight or on each edge weight.

    ``ok(x, terms)`` tests one value; a violation adds ``note``, formatted
    with the vertex or edge index.
    """

    scope: str  # 's' | 'vertex' | 'edge'
    ok: Callable[[object, _Terms], bool]
    note: str
    nonlinear_only: bool = False


@dataclass(frozen=True)
class _Rule:
    """One target of the source results, as data.

    Sobolev rows shift the edge weights by 2/s and the vertex weights by
    -3/s.  Holder rows centre both at sigma, need nonnegative edge weights off
    the resonances k + sigma (k < order), and leave the vertex strip open at
    -1/2.  The edge condition is order - mu < weighted < order, or with
    ``first_eigenvalue`` the window 1 - Re(lambda1) < weighted < 1 + Re(lambda1),
    strict at both ends because the first-eigenvalue bounds may be attained.
    ``scan`` lists the s-floors of ``max_s`` (a None floor is a note).
    """

    target: str
    order: int
    edge_requirement: str  # formatted with the weighted edge quantity
    flags: Tuple[Tuple[str, str, Optional[Callable[[ProblemSpec], bool]]], ...]
    floors: Tuple[_Floor, ...] = ()
    holder: bool = False
    first_eigenvalue: bool = False
    clamp: bool = False              # max(order - mu, 0): the weighted quantity is positive
    bound_note: bool = False         # say when a class bound could not certify an edge
    guaranteed_reason: bool = True   # say when a guaranteed eigenvalue blocks a vertex
    class_fallback: bool = False     # a matching class row certifies nonweighted vertices
    velocity_edges: bool = False     # every edge needs a velocity-prescribed face
    scan: Tuple[Tuple[Optional[Fraction], bool, str], ...] = ()  # (floor, nonlinear only, label)


_DATA = ("data_in_required_spaces", "data in the required spaces", None)
_LIFTING = ("compatibility_conditions_hold",
            "edge compatibility conditions (existence of a lifting)", None)


def _holder_cap(cap: Fraction) -> _Floor:
    return _Floor("vertex", lambda b, t: b - t.sigma < as_eps(cap),
                  "vertex {}: beta - sigma must stay below %s" % cap)


_RULES = {rule.target: rule for rule in (
    _Rule("W1", 1, "max(1-mu, 0) < delta+2/s=%s < 1", (_DATA,),
          floors=(_Floor("s", lambda s, t: s > Fraction(6, 5),
                         "nonlinear first-order result needs s > 6/5", nonlinear_only=True),),
          clamp=True, bound_note=True, class_fallback=True,
          scan=((Fraction(2), False, "edge weight window delta+2/s < 1 at zero weights"),
                (None, True, "nonlinear floor s > 6/5 subsumed by s > 2"))),
    _Rule("W2", 2, "max(2-mu, 0) < delta+2/s=%s < 2", (_DATA, _LIFTING),
          # the weight floor of the second-order nonlinear result; vacuous when
          # the iteration starts at the target weights (beta_j >= 2 - 3/s)
          floors=(_Floor("vertex", lambda b, t: not b < as_eps(2) - t.three_s
                         or b + t.three_s < as_eps(Fraction(5, 2)),
                         "vertex {}: weight floor beta + 3/s < 5/2 violated",
                         nonlinear_only=True),),
          clamp=True, bound_note=True, class_fallback=True,
          scan=((Fraction(1), False, "edge weight window delta+2/s < 2 at zero weights"),
                (Fraction(6, 5), True, "nonlinear weight floor at zero weights"))),
    _Rule("C1", 1, "1-mu < delta-sigma=%s < 1", (_DATA, _LIFTING),
          floors=(_holder_cap(Fraction(3, 2)),), holder=True),
    _Rule("C2", 2, "2-mu < delta-sigma=%s < 2", (_DATA, _LIFTING),
          floors=(_holder_cap(Fraction(5, 2)),), holder=True),
    _Rule("EXIST", 1, "1-Re(lambda1) < delta+2/s=%s < 1+Re(lambda1)",
          (_DATA, ("small_data", "data norm sufficiently small", None),
           ("compatibility_conditions_hold",
            "flux compatibility for the velocity/slip-only configuration",
            lambda sp: _all_d(sp, 0, 2))),
          floors=(_Floor("s", lambda s, t: s > Fraction(3, 2), "existence result needs s > 3/2"),
                  _Floor("vertex", lambda b, t: b + t.three_s <= as_eps(2),
                         "vertex {}: beta + 3/s must not exceed 2"),
                  _Floor("edge", lambda d, t: d + t.three_s <= as_eps(2),
                         "edge {}: delta + 3/s must not exceed 2")),
          first_eigenvalue=True, guaranteed_reason=False, class_fallback=True,
          velocity_edges=True, scan=((Fraction(3, 2), False, "existence needs s > 3/2"),)),
)}


def _edge_ok(rule: _Rule, mu: MuValue, weighted: Eps) -> bool:
    if rule.first_eigenvalue:
        return as_eps(rule.order - mu.value) < weighted < as_eps(rule.order + mu.value)
    if not weighted < as_eps(rule.order) or (rule.clamp and not as_eps(0) < weighted):
        return False
    # the class bounds are exceeded strictly, so order - bound <= weighted
    # already implies the strict inequality for the exponent itself
    need = as_eps(rule.order - mu.value)
    return need <= weighted if mu.is_lower_bound else need < weighted


# -- the theorem checks -------------------------------------------------------------

def check(spec: ProblemSpec, query: RegularityQuery, numeric_n: int = 32) -> RegularityReport:
    return _evaluate(spec, query, _RULES[query.target], numeric_n)


def _evaluate(spec: ProblemSpec, query: RegularityQuery, rule: _Rule,
              numeric_n: int = 32) -> RegularityReport:
    if rule.velocity_edges:
        _require_velocity_edges(
            spec, "; the small-data existence result requires one on every edge")
    rep = RegularityReport(rule.target, "unknown")
    if rule.holder:
        rep.sigma = float(query.sigma)
        t = _Terms(None, None, as_eps(query.sigma))
    else:
        rep.s = float(query.s)
        inv = Fraction(1) / Fraction(query.s) if isinstance(query.s, (int, Fraction)) \
            else 1.0 / query.s
        t = _Terms(as_eps(2 * inv), as_eps(3 * inv), None)
    missing = []
    for attr, name, applies in rule.flags:
        if applies is None or applies(spec):
            asserted = getattr(spec.flags, attr)
            rep.assumptions.append("%s: %s" % (name, "asserted" if asserted else "NOT asserted"))
            if not asserted:
                missing.append(name)
    betas = query.betas(len(spec.poly.vertices))
    deltas = query.deltas(len(spec.poly.edges))
    floors_ok = True
    for floor in rule.floors:
        if floor.nonlinear_only and spec.kind != "navier-stokes":
            continue
        values = {"s": (query.s,), "vertex": betas, "edge": deltas}[floor.scope]
        for i, x in enumerate(values):
            if not floor.ok(x, t):
                floors_ok = False
                rep.notes.append(floor.note.format(i))
    edges_ok, any_unknown = True, False
    for e, dk in zip(spec.poly.edges, deltas):
        if rule.holder and (dk < 0 or any(dk == as_eps(k) + t.sigma for k in range(rule.order))):
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
        weighted = dk - t.sigma if rule.holder else dk + t.two_s
        ok = _edge_ok(rule, mu, weighted)
        rep.edges.append(EdgeCheck(e.id, e.theta, mu.value, mu.provenance,
                                   rule.edge_requirement % weighted, ok))
        if not ok and mu.is_lower_bound and rule.bound_note:
            rep.notes.append("edge %d: the guaranteed exponent bound could not certify "
                             "the condition; a numeric pencil solve may sharpen it" % e.id)
        edges_ok = edges_ok and ok
    # vertices: no eigenvalues in the strip between -1/2 and the level line
    findings = vertex_findings(spec)
    guaranteed = known_exceptional(spec.bc.values())
    vertices_ok, definite_fail = True, False
    for v, b in enumerate(betas):
        level = (as_eps(rule.order) + t.sigma - b if rule.holder
                 else as_eps(rule.order) - b - t.three_s)
        target = _strip_for(level, anchor_closed=not rule.holder)
        ok, why = strip_condition_holds(findings[v], target)
        if not ok and rule.class_fallback and query.is_nonweighted():
            row = _row_fallback(spec, rule.target, query.s)
            if row is not None:
                ok, why = True, "class result %s: admissible interval %s" % (row.row_id, row.interval)
                rep.citations.append("class:%s" % row.row_id)
        if not ok and any(target.contains(g) for g in guaranteed):
            definite_fail = True
            if rule.guaranteed_reason:
                why += "; a guaranteed eigenvalue of this configuration lies in the strip"
        elif not ok and findings[v].unknown:
            any_unknown = True
        rep.vertices.append(VertexCheck(v, findings[v].describe(), str(target), ok, why))
        vertices_ok = vertices_ok and ok
        rep.citations.extend("vertex-rule:%s" % r for r in findings[v].rules)
    rep.citations = sorted(set(rep.citations))
    if missing:
        any_unknown = True
        rep.notes.extend("assumption not asserted: %s" % m for m in missing)
    if definite_fail or not (edges_ok and floors_ok):
        rep.verdict = "fails"
    elif not any_unknown:
        rep.verdict = "holds" if vertices_ok else "fails"
    return sharpness_flags(rep)


# -- admissible interval scan ----------------------------------------------------

_Constraint = Tuple[Interval, str]


def _edge_interval(rule: _Rule, mu: MuValue, edge: Edge) -> Tuple[str, Optional[_Constraint]]:
    """(requirement, admissible s-range) from one edge at zero weights.

    A class bound enters as its exact rational; the exponent exceeds it
    strictly, so the endpoint it gives is attained.
    """
    b = mu.value if mu.bound is None else mu.bound
    label = "edge %d (theta=%.6g)" % (edge.id, edge.theta)
    if rule.first_eigenvalue:
        hi = 2 / (1 - b) if b < 1 else INF
        return ("weight window around the first eigenvalue",
                (Interval(2 / (1 + b), hi, False, b >= 1), label))
    req = "s below 2/(%d - mu) when mu < %d" % (rule.order, rule.order)
    if not b < rule.order:
        return req, None
    if mu.bound is not None:
        label = "edge %d via guaranteed bound mu > %s" % (edge.id, b)
    return req, (Interval(Fraction(1), 2 / (rule.order - b), False, mu.bound is not None), label)


def _vertex_interval(finding: StripFinding, order: int, label: str) -> Optional[_Constraint]:
    """Admissible s-range from one vertex strip at zero weights.

    The required strip runs between -1/2 and L(s) = order - 3/s.
    """
    if finding.unknown:
        return None
    free = finding.free
    iv = _EVERYTHING
    # upper side: L(s) must stay within the free strip's upper end; lower
    # side: L(s) below -1/2 must still be covered (always so from order - 3)
    if as_eps(free.hi) < as_eps(order):
        iv = iv.intersect(Interval(Fraction(1), _solve_level(order, free.hi), False,
                                   free.hi_closed))
    if as_eps(free.lo) > as_eps(order - 3):
        iv = iv.intersect(Interval(_solve_level(order, free.lo), INF, free.lo_closed, True))
    for value, _note in finding.exceptional:
        if as_eps(Fraction(-1, 2)) < as_eps(value) < as_eps(order):
            iv = iv.intersect(Interval(Fraction(1), _solve_level(order, value), False, False))
        elif as_eps(value) < as_eps(Fraction(-1, 2)):
            iv = iv.intersect(Interval(_solve_level(order, value), INF, False, True))
    return iv, "%s strip %s" % (label, free)


def _solve_level(order: int, level) -> Union[Fraction, float]:
    """Solve order - 3/s = level for s (epsilon parts of rule strips are zero)."""
    diff = as_eps(order) - as_eps(level)
    val = diff.val
    if isinstance(val, (int, Fraction)):
        return Fraction(3) / Fraction(val)
    return 3.0 / float(val)


def max_s(spec: ProblemSpec, target: str, numeric_n: int = 32) -> RegularityReport:
    """Admissible nonweighted s-interval for a first/second-order or existence
    target, with the binding constraint named.

    Equal-condition edges use the exact exponent; changed-condition edges use
    the guaranteed class bounds so the interval endpoints stay exact rationals
    where the worked examples state them.
    """
    if target not in ("W1", "W2", "EXIST"):
        raise ValueError("max_s supports W1, W2 and EXIST")
    rule = _RULES[target]
    if rule.velocity_edges:
        _require_velocity_edges(spec)
    rep = RegularityReport(target, "holds")
    constraints: List[_Constraint] = []
    for lo, nonlinear_only, label in rule.scan:
        if nonlinear_only and spec.kind != "navier-stokes":
            continue
        if lo is None:
            rep.notes.append(label)
        else:
            constraints.append((Interval(lo, INF, False, True), label))
    uncertified_edges = False
    for e in spec.poly.edges:
        mu, why = _edge_exponent(spec, e, rule, numeric_n)
        if mu is None:
            uncertified_edges = True
            rep.edges.append(EdgeCheck(e.id, e.theta, 0.0, "-", why, False))
            rep.notes.append("edge %d: %s; the interval ignores this edge" % (e.id, why))
            continue
        req, c = _edge_interval(rule, mu, e)
        rep.edges.append(EdgeCheck(e.id, e.theta, mu.value, mu.provenance, req, True))
        if c is not None:
            constraints.append(c)
    # vertices; a matching class row widens what the per-vertex rules certify
    conditional = False
    findings = vertex_findings(spec)
    row = _row_fallback(spec, target, None)
    for v, f in findings.items():
        c = _vertex_interval(f, rule.order, "vertex %d" % v)
        if c is not None and row is not None:
            merged = c[0].union(row.interval)
            if merged is not None:
                c = (merged, c[1] + " widened by class result %s" % row.row_id)
                rep.citations.append("class:%s" % row.row_id)
        if c is None:
            if row is not None:
                constraints.append((row.interval,
                                    "vertex %d via class result %s" % (v, row.row_id)))
                rep.citations.append("class:%s" % row.row_id)
                rep.vertices.append(VertexCheck(v, f.describe(), "class fallback", True,
                                                "class result %s" % row.row_id))
            else:
                conditional = True
                rep.vertices.append(VertexCheck(v, f.describe(), "-", False,
                                                "no rule; interval conditional on overrides"))
            continue
        rep.vertices.append(VertexCheck(v, f.describe(), str(c[0]), True, c[1]))
        constraints.append(c)
    result = _EVERYTHING
    binding_lo = binding_hi = "none"
    for interval, label in constraints:
        before = result
        result = result.intersect(interval)
        if result.hi != before.hi or result.hi_closed != before.hi_closed:
            binding_hi = label
        if result.lo != before.lo or result.lo_closed != before.lo_closed:
            binding_lo = label
    rep.s_interval = result
    rep.binding = "upper: %s; lower: %s" % (binding_hi, binding_lo)
    rep.verdict = "unknown" if conditional or uncertified_edges or result.is_empty() else "holds"
    if conditional:
        rep.notes.append("some vertex strips are uncertified; supply override bounds")
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
        mu = mu_lower_bound(*spec.bc.pair(e), e.theta)
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
                e.theta <= 1.5 * math.pi + 1e-12 for e in _changed_edges(sp)),
            "first edge eigenvalues are bounded below by 1/3 with equality "
            "approachable at opening 3*pi/2: strict window 3/2 < s < 3"),
    ]
    return tuple(rows)


def matching_rows(spec: ProblemSpec, target: Optional[str] = None) -> Tuple[DecisionRow, ...]:
    return tuple(r for r in decision_table()
                 if (target is None or r.target == target) and r.matches(spec))


def _row_fallback(spec: ProblemSpec, target: str, s) -> Optional[DecisionRow]:
    """The matching class row with the widest upper end, containing s if given."""
    rows = [row for row in matching_rows(spec, target)
            if s is None or row.interval.contains(s)]
    return max(rows, key=lambda row: (row.interval.hi, row.interval.hi_closed), default=None)


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
