"""Polyhedral domain ingestion and per-edge/per-vertex geometry.

A domain is a closed polyhedral solid given by vertices and oriented face
loops (counterclockwise seen from outside the solid).  The flow domain is
either the interior of the solid or, with ``complement=True``, its exterior;
in the latter case every edge angle is 2*pi minus the solid's interior
dihedral angle and no further mesh data is needed.

Angles are always reported as measured inside the fluid.  An opening within
``tol`` of a special opening is stored as exactly that float, so threshold
comparisons downstream are exact and no rigid motion moves one across.
Snapping never enters the vertex-cone predicate, which reads the unsnapped
angles kept beside the edges.

Everything here runs on the standard library: points, normals and
directions are tuples of floats, and every dot product sums its three terms
left to right, so an angle does not depend on a BLAS build's choice of
summation order or fused multiply-adds.  Loading a domain loads no numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import yaml

__all__ = [
    "MU_THRESHOLD_TWO_THIRDS",
    "MeshError",
    "DomainFileError",
    "BC_INDEX",
    "BC_NAMES",
    "Edge",
    "VertexCone",
    "BoundaryAssignment",
    "VertexBound",
    "Polyhedron",
    "load_polyhedron",
    "loads_polyhedron",
    "special_opening",
]


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class DomainFileError(ValueError):
    """Domain file does not conform to the schema."""


# boundary condition tags, in the order of the condition index d
BC_INDEX = {
    "dirichlet": 0,
    "tangential-velocity": 1,
    "slip": 2,
    "neumann": 3,
}
BC_NAMES = {v: k for k, v in BC_INDEX.items()}

# a point or direction in space
Vec = Tuple[float, float, float]

# margin below which a direction counts as lying on a supporting plane
_SUPPORT_TOL = 1e-9

# opening angle below which the velocity-pair exponent exceeds 2/3:
# three times the angle whose cosine is 1/4 (about 1.2587*pi)
MU_THRESHOLD_TWO_THIRDS = 3.0 * math.acos(0.25)

# the openings an edge angle snaps to, each with its exact multiple of pi
# where it has one; every threshold of the exponent rules is one of them
# (pi/2 is 12 / 24 * pi to the last bit)
_SPECIAL_OPENINGS = tuple((k / 24 * math.pi, Fraction(k, 24)) for k in range(1, 48)) + (
    (MU_THRESHOLD_TWO_THIRDS, None), (0.5 * MU_THRESHOLD_TWO_THIRDS, None))


def special_opening(theta: float, tol: float = 0.0) -> Tuple[float, Optional[Fraction]]:
    """The special opening within ``tol`` of ``theta`` and, on the pi/24 grid,
    its exact value as a multiple of pi; else ``(theta, None)``."""
    special, exact = min(_SPECIAL_OPENINGS, key=lambda t: abs(t[0] - theta))
    if abs(special - theta) <= tol:
        return special, exact
    return theta, None


@dataclass(frozen=True)
class Edge:
    """A mesh edge with its two adjacent faces and the fluid-side angle.

    ``theta`` is the dihedral angle inside the fluid domain, in (0, 2*pi).
    ``k_plus`` is the face whose loop traverses the edge from ``endpoints[0]``
    to ``endpoints[1]``; ``k_minus`` traverses it the other way.
    """

    id: int
    endpoints: Tuple[int, int]
    adjacent_faces: Tuple[int, int]  # (k_plus, k_minus)
    theta: float


@dataclass(frozen=True)
class VertexCone:
    """Predicates of the fluid cone at a vertex.

    ``contained_in_half_space``: the cone boundary (the incident face sectors)
    lies in a closed half-space through the vertex, up to a margin of
    ``_SUPPORT_TOL``, and the fluid lies on that half-space's side.  Both
    parts read only the faces at the vertex (their sectors and the unsnapped
    dihedral angles of their edges), so the answer depends neither on how
    the domain is placed in space nor on faces away from the vertex.
    """

    vertex: int
    normals: Tuple[Vec, ...]  # outward unit normals of the incident faces
    contained_in_half_space: bool


@dataclass(frozen=True)
class VertexBound:
    """User-supplied lower bound for the vertex spectrum, with provenance."""

    bound: float
    note: str = ""

    def __post_init__(self):
        if not self.bound > -0.5:
            raise ValueError("vertex bound must exceed -1/2, got %r" % (self.bound,))


@dataclass(frozen=True)
class BoundaryAssignment:
    """Per-face boundary condition index d in {0, 1, 2, 3}."""

    d: Tuple[int, ...]

    def __post_init__(self):
        for k, dk in enumerate(self.d):
            if dk not in (0, 1, 2, 3):
                raise ValueError("face %d has invalid condition index %r" % (k, dk))

    def pair(self, edge: Edge) -> Tuple[int, int]:
        """Condition indices (d_plus, d_minus) on the faces adjoining an edge."""
        kp, km = edge.adjacent_faces
        return self.d[kp], self.d[km]

    def values(self) -> Tuple[int, ...]:
        return self.d


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec, b: Vec) -> float:
    """The dot product, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec, b: Vec) -> Vec:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _norm(v: Vec) -> float:
    return math.sqrt(_dot(v, v))


def _scaled(v: Vec, n: float) -> Vec:
    """``v / n``, coordinate by coordinate."""
    return (v[0] / n, v[1] / n, v[2] / n)


def _unit(v: Vec) -> Vec:
    n = _norm(v)
    if n == 0:
        raise MeshError("zero-length vector")
    return _scaled(v, n)


def _newell_normal(pts: Sequence[Vec]) -> Vec:
    """Area-weighted face normal (Newell's method); robust for any planar loop."""
    x = y = z = 0.0
    for i in range(len(pts)):
        cx, cy, cz = _cross(pts[i], pts[(i + 1) % len(pts)])
        x += cx
        y += cy
        z += cz
    return (0.5 * x, 0.5 * y, 0.5 * z)


def _triples(vertices) -> Tuple[Vec, ...]:
    """``vertices``, any sequence of (x, y, z) triples, as float triples."""
    try:
        points = tuple((float(x), float(y), float(z)) for x, y, z in vertices)
    except (TypeError, ValueError) as exc:
        raise MeshError("vertices must be a sequence of (x, y, z) triples") from exc
    if not points:
        raise MeshError("vertices must be a sequence of (x, y, z) triples")
    return points


class Polyhedron:
    """A validated closed polyhedral boundary with derived edge data.

    Parameters
    ----------
    vertices : a sequence of (x, y, z) points, kept as ``vertices``, a tuple
        of float triples.
    faces : vertex-index loops, counterclockwise seen from outside the solid.
    complement : if True the fluid fills the exterior of the solid.
    name : optional label.
    tol : relative tolerance for planarity/degeneracy checks, and the angle
        tolerance within which an opening snaps to a special opening.

    ``face_normals`` (outward unit normals) and ``face_areas`` are tuples by
    face, of float triples and floats.
    """

    def __init__(self, vertices, faces, complement: bool = False,
                 name: Optional[str] = None, tol: float = 1e-9):
        self.vertices = _triples(vertices)
        self.faces = tuple(tuple(int(i) for i in loop) for loop in faces)
        self.complement = bool(complement)
        self.name = name
        self.tol = float(tol)
        if not (math.isfinite(self.tol) and self.tol >= 0):  # nan would pass every check
            raise MeshError("tol must be a finite number >= 0, got %r" % (tol,))
        self._validate_basic()
        self.face_normals, self.face_areas = self._face_planes()
        self.edges, self._solid_angles = self._derive_edges()
        self._validate_global()

    # -- construction checks -------------------------------------------------

    def _validate_basic(self):
        if not all(math.isfinite(c) for p in self.vertices for c in p):
            raise MeshError("non-finite vertex coordinates")
        if len(self.faces) < 4:
            raise MeshError("a closed polyhedron needs at least 4 faces")
        n = len(self.vertices)
        for k, loop in enumerate(self.faces):
            if len(loop) < 3:
                raise MeshError("face %d is degenerate: loop of %d vertices" % (k, len(loop)))
            if len(set(loop)) != len(loop):
                raise MeshError("face %d repeats a vertex" % k)
            if any(i < 0 or i >= n for i in loop):
                raise MeshError("face %d references an unknown vertex" % k)
        # a loop names each of its vertices once, so this counts incident faces
        counts = [0] * n
        for loop in self.faces:
            for i in loop:
                counts[i] += 1
        few = [i for i, count in enumerate(counts) if count < 3]
        if few:
            raise MeshError("vertex %d has fewer than 3 incident faces" % few[0])

    @property
    def _diag(self) -> float:
        lo = tuple(min(c) for c in zip(*self.vertices))
        hi = tuple(max(c) for c in zip(*self.vertices))
        return _norm(_sub(hi, lo))

    def _face_planes(self) -> Tuple[Tuple[Vec, ...], Tuple[float, ...]]:
        diag = self._diag
        if diag == 0:
            raise MeshError("degenerate mesh: zero bounding box")
        normals, areas = [], []
        for k, loop in enumerate(self.faces):
            pts = [self.vertices[i] for i in loop]
            nrm = _newell_normal(pts)
            area = _norm(nrm)
            if area <= self.tol * diag ** 2:
                raise MeshError("face %d has zero area" % k)
            normal = _scaled(nrm, area)
            normals.append(normal)
            areas.append(area)
            # planarity: every vertex close to the face plane
            center = _scaled(tuple(sum(c) for c in zip(*pts)), len(pts))
            if max(abs(_dot(_sub(p, center), normal)) for p in pts) > self.tol * diag:
                raise MeshError("face %d is not planar within tolerance" % k)
            for i in range(len(loop)):
                if _norm(_sub(pts[(i + 1) % len(loop)], pts[i])) <= self.tol * diag:
                    raise MeshError("face %d contains a zero-length edge" % k)
        return tuple(normals), tuple(areas)

    def _derive_edges(self) -> Tuple[Tuple[Edge, ...], Tuple[float, ...]]:
        """The edges, and the solid's unsnapped dihedral angle at each (by
        edge id) for the vertex-cone predicate."""
        directed: Dict[Tuple[int, int], List[int]] = {}
        for k, loop in enumerate(self.faces):
            for i in range(len(loop)):
                a, b = loop[i], loop[(i + 1) % len(loop)]
                directed.setdefault((a, b), []).append(k)
        edges, solid_angles = [], []
        seen = set()
        for (a, b), ks in directed.items():
            if len(ks) != 1:
                raise MeshError("directed edge %r used by %d faces; mesh is not an oriented manifold" % ((a, b), len(ks)))
            if (a, b) in seen or (b, a) in seen:
                continue
            if (b, a) not in directed:
                raise MeshError("edge %r is not shared by exactly two faces" % ((a, b),))
            seen.add((a, b))
            k_plus = ks[0]
            k_minus = directed[(b, a)][0]
            theta_solid = self._solid_dihedral(a, b, k_plus, k_minus)
            theta = 2 * math.pi - theta_solid if self.complement else theta_solid
            theta = special_opening(theta, self.tol)[0]
            edges.append(Edge(len(edges), (a, b), (k_plus, k_minus), theta))
            solid_angles.append(theta_solid)
        return tuple(edges), tuple(solid_angles)

    def _solid_dihedral(self, a: int, b: int, k_plus: int, k_minus: int) -> float:
        """Interior dihedral angle of the solid along edge (a, b)."""
        e = _unit(_sub(self.vertices[b], self.vertices[a]))
        n1 = self.face_normals[k_plus]
        n2 = self.face_normals[k_minus]
        s = _dot(_cross(n1, n2), e)
        c = -_dot(n1, n2)
        theta = math.atan2(s, c) % (2 * math.pi)
        if theta <= 0 or theta >= 2 * math.pi:
            raise MeshError("edge (%d, %d) has a degenerate dihedral angle" % (a, b))
        return theta

    def _validate_global(self):
        V, E, F = len(self.vertices), len(self.edges), len(self.faces)
        if V - E + F != 2:
            raise MeshError("Euler characteristic V-E+F = %d != 2" % (V - E + F))
        # divergence-theorem closure: area vectors of a closed surface sum to zero
        total = tuple(sum(c) for c in zip(*(
            (a * n[0], a * n[1], a * n[2]) for n, a in zip(self.face_normals, self.face_areas))))
        if _norm(total) > 1e-9 * sum(self.face_areas):
            raise MeshError("face area vectors do not close; mesh is not watertight")
        if self.signed_volume() <= 0:
            raise MeshError("negative enclosed volume; face loops are not oriented outward")

    # -- derived quantities ---------------------------------------------------

    def signed_volume(self) -> float:
        vol = 0.0
        for loop in self.faces:
            pts = [self.vertices[i] for i in loop]
            for i in range(1, len(loop) - 1):
                vol += _dot(pts[0], _cross(pts[i], pts[i + 1])) / 6.0
        return vol

    def is_convex(self) -> bool:
        """True iff the solid is convex and the fluid is its interior.

        Exterior (complement) domains are never reported convex.
        """
        if self.complement:
            return False
        return all(e.theta < math.pi for e in self.edges)

    def incident_faces(self, vertex: int) -> Tuple[int, ...]:
        return tuple(k for k, loop in enumerate(self.faces) if vertex in loop)

    def incident_edges(self, vertex: int) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if vertex in e.endpoints)

    # -- vertex cones -----------------------------------------------------------

    def vertex_cone(self, vertex: int) -> VertexCone:
        faces = self.incident_faces(vertex)
        gens = self._sector_generators(vertex, faces)
        w = _supporting_normal(gens)
        contained = w is not None
        if contained and max(_dot(g, w) for g in gens) > _SUPPORT_TOL:
            # the open half-space w . x < 0 misses the boundary, so it is all
            # fluid or all solid (a boundary flat on the plane leaves a
            # half-space on either side): all solid exactly when the fluid's
            # solid angle at the vertex is below 2*pi.  If the incident faces
            # form one fan around the vertex, Girard's theorem on the unit
            # sphere gives that angle as sum(theta_e) - (k - 2)*pi over the k
            # incident edges, theta_e the fluid dihedral angles, so the test
            # is sum(theta_e) < k*pi.  The angles are the unsnapped ones:
            # near a flat vertex all of them may snap to exactly pi.
            edges = self.incident_edges(vertex)
            solid = [self._solid_angles[e.id] for e in edges]
            fluid = sum(2 * math.pi - t if self.complement else t for t in solid)
            contained = fluid < len(edges) * math.pi
        return VertexCone(vertex, tuple(self.face_normals[k] for k in faces), contained)

    def _sector_generators(self, vertex: int, faces: Sequence[int]) -> List[Vec]:
        """Edge rays and in-face corner bisectors of the face sectors at a vertex.

        Each face sector turns from the ray to the next loop vertex through the
        face's corner angle; its bisector splits it into two convex halves, so
        the sector lies in a closed half-space through the vertex exactly when
        its rays and bisector do.  Every edge ray leads one sector, so each
        appears once.
        """
        v = self.vertices[vertex]
        out = []
        for k in faces:
            loop = self.faces[k]
            i = loop.index(vertex)
            a = _unit(_sub(self.vertices[loop[(i + 1) % len(loop)]], v))
            b = _unit(_sub(self.vertices[loop[(i - 1) % len(loop)]], v))
            nf = self.face_normals[k]
            # interior corner angle of the face at v, in (0, 2*pi)
            ang = math.atan2(_dot(_cross(a, b), nf), _dot(a, b)) % (2 * math.pi)
            c, s = math.cos(ang / 2), math.sin(ang / 2)
            x = _cross(nf, a)
            out += [a, (c * a[0] + s * x[0], c * a[1] + s * x[1], c * a[2] + s * x[2])]
        return out

    def __repr__(self):
        return "Polyhedron(name=%r, V=%d, E=%d, F=%d, complement=%r)" % (
            self.name, len(self.vertices), len(self.edges), len(self.faces), self.complement)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  Nothing in
    the program calls it any more: :func:`graph_direction_feasible` is a
    closed form.  The name stays because ``perfbench/tracer.py`` wraps it at
    install and raises ``KeyError`` for a missing name; the benchmark's next
    change deletes it with that lookup."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def graph_direction_feasible(normals: Sequence[Vec], tol: float = 1e-9) -> bool:
    """Heuristic for the Lipschitz-graph property at a vertex: the cone
    boundary is a graph over some plane when a direction has strictly
    positive dot product with every incident outward face normal.

    By Gordan's theorem such a direction exists exactly when the origin lies
    outside the convex hull of the normals, and the unit w maximizing
    min n . w points at the hull's nearest point to the origin.  That point
    is the projection of the origin onto the affine hull of one, two or three
    normals, so the projections onto every normal, pair and triple are the
    candidates, and the best worst margin among them decides against ``tol``.
    Degenerate pairs and triples are skipped: a coplanar, antipodal or
    repeated set keeps its nearest point among the others.
    """
    n = [(float(x), float(y), float(z)) for x, y, z in normals]
    cand = list(n)
    for a, b in itertools.combinations(n, 2):
        d = _sub(b, a)
        dd = _dot(d, d)
        if dd > 1e-24:
            t = _dot(a, d) / dd
            cand.append((a[0] - t * d[0], a[1] - t * d[1], a[2] - t * d[2]))
    for a, b, c in itertools.combinations(n, 3):
        nu = _cross(_sub(b, a), _sub(c, a))
        nn = _dot(nu, nu)
        if nn > 1e-24:
            t = _dot(a, nu) / nn
            cand.append((t * nu[0], t * nu[1], t * nu[2]))
    for w in cand:
        norm = _norm(w)
        if norm > 1e-12:
            w = _scaled(w, norm)
            if all(_dot(p, w) > tol for p in n):
                return True
    return False


def _supporting_normal(gens: Sequence[Vec]) -> Optional[Vec]:
    """A unit w with w . g >= -_SUPPORT_TOL for every generator g, or None.

    If some closed half-space through the origin holds every generator, one
    such half-space has two linearly independent generators on its boundary
    plane, so the candidates +-(g_i x g_j) are exhaustive.  The candidate with
    the largest worst margin, the first of equals, is returned; a zero margin
    (a generator on the plane) is accepted.
    """
    cand = []
    for a, b in itertools.combinations(gens, 2):
        c = _cross(a, b)
        norm = _norm(c)
        if norm > 1e-12:
            cand.append(_scaled(c, norm))
    cand += [(-x, -y, -z) for x, y, z in cand]
    best, margin = None, -math.inf
    for w in cand:
        wx, wy, wz = w
        # a candidate whose margin cannot exceed the best one is dropped at
        # its first generator at or below that margin
        for gx, gy, gz in gens:
            if gx * wx + gy * wy + gz * wz <= margin:
                break
        else:
            best, margin = w, min(gx * wx + gy * wy + gz * wz for gx, gy, gz in gens)
    return best if margin >= -_SUPPORT_TOL else None


# -- domain files ---------------------------------------------------------------

_BC_HELP = ", ".join(sorted(BC_INDEX))


def _finite(x) -> Optional[float]:
    """``x`` as a finite float, or None when it is not a finite number.

    Numeric strings count: ``%.17g`` writes some floats without a decimal
    point (``1e+20``), and YAML reads those as strings."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        x = float(x)
    except (ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _is_index(x) -> bool:
    # YAML reads yes/no as booleans, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


# libyaml's parser when PyYAML was built with it; the pure-Python one is the
# only parser an install without libyaml has
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def loads_polyhedron(text: str, tol: float = 1e-9):
    """Parse a domain document; returns (Polyhedron, BoundaryAssignment, bounds).

    ``bounds`` maps vertex index -> VertexBound (user-supplied spectral bounds).
    """
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml reads UTF-8 bytes
        raise DomainFileError("unparsable domain file: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise DomainFileError("domain file must be a mapping")
    for key in ("vertices", "faces"):
        if key not in doc:
            raise DomainFileError("missing required field %r" % key)
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or any(
            not isinstance(p, list) or len(p) != 3 for p in vertices):
        raise DomainFileError("'vertices' must be a list of [x, y, z] triples")
    for i, p in enumerate(vertices):
        if any(_finite(c) is None for c in p):
            raise DomainFileError("vertex %d: coordinates %r are not finite numbers" % (i, p))
    loops = []
    ds = []
    if not isinstance(doc["faces"], list):
        raise DomainFileError("'faces' must be a list")
    for k, f in enumerate(doc["faces"]):
        if not isinstance(f, dict) or "loop" not in f or "bc" not in f:
            raise DomainFileError("face %d must carry 'loop' and 'bc'" % k)
        if not isinstance(f["bc"], str) or f["bc"] not in BC_INDEX:
            raise DomainFileError("face %d: unknown boundary tag %r (expected one of: %s)"
                                  % (k, f["bc"], _BC_HELP))
        if not isinstance(f["loop"], list) or not all(map(_is_index, f["loop"])):
            raise DomainFileError("face %d: 'loop' must be a list of vertex indices, got %r"
                                  % (k, f["loop"]))
        loops.append(f["loop"])
        ds.append(BC_INDEX[f["bc"]])
    complement = doc.get("complement", False)
    if not isinstance(complement, bool):
        raise DomainFileError("'complement' must be true or false, got %r" % (complement,))
    poly = Polyhedron(vertices, loops, complement=complement,
                      name=doc.get("name"), tol=tol)
    bounds: Dict[int, VertexBound] = {}
    raw = doc.get("vertex_bounds") or {}
    if not isinstance(raw, dict):
        raise DomainFileError("'vertex_bounds' must be a mapping vertex -> {bound, note}")
    for v, entry in raw.items():
        if not _is_index(v) or v < 0 or v >= len(poly.vertices):
            raise DomainFileError("vertex_bounds references unknown vertex %r" % v)
        if not isinstance(entry, dict) or "bound" not in entry:
            raise DomainFileError("vertex_bounds[%r] must carry 'bound'" % v)
        bound = _finite(entry["bound"])
        if bound is None:
            raise DomainFileError("vertex_bounds[%r]: bound %r is not a finite number"
                                  % (v, entry["bound"]))
        try:
            bounds[v] = VertexBound(bound, str(entry.get("note", "")))
        except ValueError as exc:
            raise DomainFileError("vertex_bounds[%r]: %s" % (v, exc)) from exc
    return poly, BoundaryAssignment(tuple(ds)), bounds


def load_polyhedron(path, tol: float = 1e-9):
    """Load a domain file from disk; see :func:`loads_polyhedron`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainFileError("domain file is not UTF-8 text: %s" % exc) from exc
    return loads_polyhedron(text, tol=tol)
