"""Eigenvalue-free strips for the vertex pencils, by rule catalogue.

The vertex pencils act on the spherical cross-section of each corner cone;
their eigenvalues are not computed here.  Instead a catalogue of guaranteed
eigenvalue-free strips (with explicitly listed exceptional eigenvalues) is
applied, keyed on the boundary-condition pattern and cone predicates, plus a
user-supplied numeric-bound escape hatch justified by the monotonicity of the
eigenvalues with respect to cone inclusion.

The spectra are symmetric about the energy line, lambda <-> -1 - conj(lambda)
(Kozlov, Maz'ya & Rossmann, AMS 2001, on the Stokes system in a cone): each
strip quoted from -1/2 up is stated whole, exceptional values with their mirrors.

Rules (applied by specificity; compatible findings are merged into one strip):

R1  velocity prescribed on every incident face: [-1, 0] free.
R2  as R1, cone contained in a half-space: (-2, 1) free; the simple
    eigenvalue 1 (constant-pressure eigenvector, no generalized ones) and
    its mirror -2 sit at the open ends.
R3  stress prescribed on every incident face, Lipschitz-graph polyhedron:
    [-1, 0] with the exceptional eigenvalues 0 and 1 as stated and their
    mirrors -1 and -2 (1 and -2 lie outside the strip; flagged in reports).
R4  conditions of index <= 2 only, at least two distinct indices, and the
    velocity prescribed on one side of every incident edge: [-1, 0] free.
R5  convex polyhedron, velocity everywhere except one slip face whose edges
    open below pi/2: [-2, 1] containing only the simple eigenvalues 1, -2.
R6  user bound b > -1/2 on the spectrum above -1/2: (-1 - b, b) free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .geometry import VertexBound, VertexCone
from .spaces import Eps

__all__ = [
    "INF",
    "Interval",
    "StripFinding",
    "eigenfree_strip",
    "strip_condition_holds",
    "known_exceptional",
]

INF = math.inf  # an unbounded end
_ENERGY_LINE = Fraction(-1, 2)  # Re lambda = -1/2: every strip that starts at it


@dataclass(frozen=True)
class Interval:
    """A real interval with endpoint openness: eigenvalue strips (rational
    catalogue ends, a float user bound, ``Eps`` levels) and s-intervals
    (rational where exact, ``INF`` where unbounded).

    Ends compare only through their keys: x lies in the interval iff
    ``lo_key <= (x, 0)`` and ``(x, 1) <= hi_key``.  Ends equal in value can
    still differ in type (the float 3.0 and ``Fraction(3)`` serialize
    differently), so ``intersect`` and ``union`` say which one they keep.
    """

    lo: Union[Fraction, float, Eps]
    hi: Union[Fraction, float, Eps]
    lo_closed: bool = False
    hi_closed: bool = False

    @property
    def lo_key(self):
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def hi_key(self):
        return (self.hi, 1 if self.hi_closed else 0)

    def is_empty(self) -> bool:
        return not self.lo_key < self.hi_key

    def contains(self, x) -> bool:
        return self.lo_key <= (x, 0) and (x, 1) <= self.hi_key

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo_key <= other.lo_key and other.hi_key <= self.hi_key

    def intersect(self, other: "Interval") -> "Interval":
        """At equal values the open end is kept, ``other``'s when both are."""
        # other's ends against self's taken closed: other's wins a tie iff open
        lo = other if other.lo_key > (self.lo, 0) else self
        hi = other if other.hi_key < (self.hi, 1) else self
        return Interval(lo.lo, hi.hi, lo.lo_closed, hi.hi_closed)

    def union(self, other: "Interval") -> Optional["Interval"]:
        """Union of two overlapping or touching intervals; None when it is not
        an interval.  At equal values the closed end is kept, ``other``'s when
        both are."""
        if not (self.hi_key >= other.lo_key and other.hi_key >= self.lo_key):
            return None
        # other's ends against self's taken open: other's wins a tie iff closed
        lo = other if other.lo_key < (self.lo, 1) else self
        hi = other if other.hi_key > (self.hi, 0) else self
        return Interval(lo.lo, hi.hi, lo.lo_closed, hi.hi_closed)

    def __str__(self):
        def fmt(x):
            return str(x) if isinstance(x, (Fraction, Eps)) else "%.6g" % x
        return "%s%s, %s%s" % ("[" if self.lo_closed else "(", fmt(self.lo),
                               fmt(self.hi), "]" if self.hi_closed else ")")

    # the JSON writes an unbounded end as the rational 10**9: readers of the
    # reports take interval ends as numbers, and JSON has no infinity
    _WIRE_INF = 10 ** 9

    def to_dict(self):
        def enc(x):
            if x == INF:
                return [self._WIRE_INF, 1]
            if isinstance(x, Fraction):
                return [x.numerator, x.denominator]
            return float(x)
        return {"lo": enc(self.lo), "hi": enc(self.hi),
                "lo_closed": self.lo_closed, "hi_closed": self.hi_closed}

    @staticmethod
    def from_dict(d):
        def dec(x):
            if isinstance(x, list):
                return INF if x == [Interval._WIRE_INF, 1] else Fraction(x[0], x[1])
            return float(x)
        return Interval(dec(d["lo"]), dec(d["hi"]), d["lo_closed"], d["hi_closed"])


@dataclass(frozen=True)
class StripFinding:
    """Certified eigenvalue-free strip at one vertex, or an explicit unknown.
    Strip ends and exceptional values are exact, save a float R6 user bound."""

    vertex: int
    free: Optional[Interval]
    exceptional: Tuple[Tuple[Fraction, str], ...] = ()
    rules: Tuple[str, ...] = ()
    assumptions: Tuple[str, ...] = ()

    @property
    def unknown(self) -> bool:
        return self.free is None

    def describe(self) -> str:
        if self.unknown:
            return "no applicable rule (%s)" % "; ".join(self.assumptions) if self.assumptions \
                else "no applicable rule"
        parts = ["free strip %s via %s" % (self.free, "+".join(self.rules))]
        if self.exceptional:
            parts.append("exceptional: " + ", ".join(
                "%g (%s)" % (v, note) for v, note in self.exceptional))
        return "; ".join(parts)


def eigenfree_strip(cone: VertexCone, incident_d: Sequence[int],
                    edge_pairs: Sequence[Tuple[int, int]],
                    override: Optional[VertexBound] = None, *,
                    lipschitz_graph: Optional[bool] = None,
                    slip_class: bool = False) -> StripFinding:
    """Apply the rule catalogue at one vertex.

    ``incident_d`` are the condition indices of the faces meeting the vertex,
    ``edge_pairs`` the index pairs across its incident edges.  ``slip_class``
    asserts the R5 configuration (checked by the caller on the whole domain).
    Rules are tried from the most specific; every applicable strip is merged.
    """
    ds = set(incident_d)
    candidates: List[Tuple[str, Interval, Tuple[Tuple[Fraction, str], ...], Tuple[str, ...]]] = []
    notes: List[str] = []
    if ds == {0}:
        if cone.contained_in_half_space:
            candidates.append(("R2", Interval(_ENERGY_LINE, Fraction(1), True, False),
                               ((Fraction(1), "constant-pressure eigenvector, "
                                              "no generalized eigenvectors"),),
                               ("cone contained in a half-space",)))
        else:
            candidates.append(("R1", Interval(_ENERGY_LINE, Fraction(0), True, True), (), ()))
    elif ds == {3}:
        if lipschitz_graph:
            candidates.append(("R3", Interval(Fraction(-1), Fraction(0), True, True),
                               ((Fraction(0), "rigid motion"),
                                (Fraction(1), "listed by the quoted statement "
                                              "although outside its strip")),
                               ("Lipschitz-graph polyhedron",)))
        else:
            notes.append("all-stress vertex needs the Lipschitz-graph assumption; refusing to guess")
    if slip_class and ds <= {0, 2} and 2 in ds:
        candidates.append(("R5", Interval(_ENERGY_LINE, Fraction(1), True, True),
                           ((Fraction(1), "simple eigenvalue"),),
                           ("convex polyhedron", "single slip face with edge openings below pi/2")))
    if max(ds) <= 2 and len(ds) >= 2 and all(0 in pair for pair in edge_pairs):
        candidates.append(("R4", Interval(Fraction(-1), Fraction(0), True, True), (), ()))
    if override is not None:
        candidates.append(("R6", Interval(_ENERGY_LINE, override.bound, True, False), (),
                           ("user bound via monotonicity over the enclosing circular cone: "
                            + (override.note or "unattributed"),)))
    if not candidates:
        return StripFinding(cone.vertex, None, (), (), tuple(notes))
    # order by catalogue number, merge all strips and exceptional values, mirror both
    candidates.sort(key=lambda c: c[0])
    free = functools.reduce(Interval.union, (c[1] for c in candidates))  # all contain -1/2
    free, exceptional = _symmetric(free, [e for c in candidates for e in c[2]])
    rules = tuple(c[0] for c in candidates)
    assumptions = tuple(dict.fromkeys(a for c in candidates for a in c[3])) + tuple(notes)
    return StripFinding(cone.vertex, free, exceptional, rules, assumptions)


def _symmetric(strip: Optional[Interval], exceptional: Sequence[Tuple[Fraction, str]]):
    """``strip`` (containing -1/2) and (value, note) pairs, closed under -1 - conj(lambda)."""
    def mirror(x):  # a float (an R6 bound) rounds toward the energy line
        if not isinstance(x, float):
            return -1 - x
        m, exact = -1 - x, -1 - Fraction(x)
        return math.nextafter(m, -0.5) if (Fraction(m) - exact) * (exact - _ENERGY_LINE) > 0 else m
    if strip is not None:
        strip = strip.union(Interval(mirror(strip.hi), mirror(strip.lo),
                                     strip.hi_closed, strip.lo_closed))
    values = dict(exceptional)
    for v, _ in exceptional:
        values.setdefault(mirror(v), "mirror of %s" % v)
    return strip, tuple(sorted(values.items()))


def strip_condition_holds(finding: StripFinding, target: Interval) -> Tuple[bool, str]:
    """Is the target strip certified free of eigenvalues?

    Endpoint openness is respected on both sides: an exceptional eigenvalue
    at an open target endpoint does not block, at a closed one it does.
    """
    if finding.unknown:
        return False, "vertex %d: %s" % (finding.vertex, finding.describe())
    if not finding.free.contains_interval(target):
        return False, ("vertex %d: required %s not inside certified %s"
                       % (finding.vertex, target, finding.free))
    for value, note in finding.exceptional:
        if target.contains(value):
            return False, ("vertex %d: exceptional eigenvalue %g (%s) lies in required %s"
                           % (finding.vertex, value, note, target))
    return True, ("vertex %d: %s covered by %s via %s"
                  % (finding.vertex, target, finding.free, "+".join(finding.rules)))


def known_exceptional(all_d: Sequence[int]) -> Tuple[Fraction, ...]:
    """Eigenvalues every vertex pencil of the configuration must contain, with mirrors:
    1 (zero velocity, constant pressure) with velocity/slip conditions only (0 and 2),
    0 (rigid motions) and 1 with stress everywhere, none with a tangential-velocity face."""
    ds = set(all_d)
    values = (1,) if ds <= {0, 2} else (0, 1) if ds == {3} else ()
    return tuple(v for v, _ in _symmetric(None, [(Fraction(v), "") for v in values])[1])
