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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
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
    normals: np.ndarray  # outward unit normals of the incident faces
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, from their scalar components: the same
    IEEE products and differences, without its per-call axis handling."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise MeshError("zero-length vector")
    return v / n


def _newell_normal(pts: np.ndarray) -> np.ndarray:
    """Area-weighted face normal (Newell's method); robust for any planar loop."""
    nrm = np.zeros(3)
    for i in range(len(pts)):
        a = pts[i]
        b = pts[(i + 1) % len(pts)]
        nrm += _cross(a, b)
    return 0.5 * nrm


class Polyhedron:
    """A validated closed polyhedral boundary with derived edge data.

    Parameters
    ----------
    vertices : (n, 3) array of points.
    faces : vertex-index loops, counterclockwise seen from outside the solid.
    complement : if True the fluid fills the exterior of the solid.
    name : optional label.
    tol : relative tolerance for planarity/degeneracy checks, and the angle
        tolerance within which an opening snaps to a special opening.
    """

    def __init__(self, vertices, faces, complement: bool = False,
                 name: Optional[str] = None, tol: float = 1e-9):
        self.vertices = np.asarray(vertices, dtype=float)
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
        V = self.vertices
        if V.ndim != 2 or V.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if not np.all(np.isfinite(V)):
            raise MeshError("non-finite vertex coordinates")
        if len(self.faces) < 4:
            raise MeshError("a closed polyhedron needs at least 4 faces")
        n = len(V)
        for k, loop in enumerate(self.faces):
            if len(loop) < 3:
                raise MeshError("face %d is degenerate: loop of %d vertices" % (k, len(loop)))
            if len(set(loop)) != len(loop):
                raise MeshError("face %d repeats a vertex" % k)
            if any(i < 0 or i >= n for i in loop):
                raise MeshError("face %d references an unknown vertex" % k)
        # a loop names each of its vertices once, so this counts incident faces
        counts = np.bincount([i for loop in self.faces for i in loop], minlength=n)
        few = np.flatnonzero(counts < 3)
        if len(few):
            raise MeshError("vertex %d has fewer than 3 incident faces" % few[0])

    @property
    def _diag(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def _face_planes(self):
        diag = self._diag
        if diag == 0:
            raise MeshError("degenerate mesh: zero bounding box")
        normals = np.zeros((len(self.faces), 3))
        areas = np.zeros(len(self.faces))
        for k, loop in enumerate(self.faces):
            pts = self.vertices[list(loop)]
            nrm = _newell_normal(pts)
            area = np.linalg.norm(nrm)
            if area <= self.tol * diag ** 2:
                raise MeshError("face %d has zero area" % k)
            normals[k] = nrm / area
            areas[k] = area
            # planarity: every vertex close to the face plane
            center = pts.mean(axis=0)
            dist = np.abs((pts - center) @ normals[k])
            if dist.max() > self.tol * diag:
                raise MeshError("face %d is not planar within tolerance" % k)
            for i in range(len(loop)):
                a = pts[i]
                b = pts[(i + 1) % len(loop)]
                if np.linalg.norm(b - a) <= self.tol * diag:
                    raise MeshError("face %d contains a zero-length edge" % k)
        return normals, areas

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
        e = _unit(self.vertices[b] - self.vertices[a])
        n1 = self.face_normals[k_plus]
        n2 = self.face_normals[k_minus]
        s = float(np.dot(_cross(n1, n2), e))
        c = float(-np.dot(n1, n2))
        theta = math.atan2(s, c) % (2 * math.pi)
        if theta <= 0 or theta >= 2 * math.pi:
            raise MeshError("edge (%d, %d) has a degenerate dihedral angle" % (a, b))
        return theta

    def _validate_global(self):
        V, E, F = len(self.vertices), len(self.edges), len(self.faces)
        if V - E + F != 2:
            raise MeshError("Euler characteristic V-E+F = %d != 2" % (V - E + F))
        # divergence-theorem closure: area vectors of a closed surface sum to zero
        total = (self.face_normals * self.face_areas[:, None]).sum(axis=0)
        if np.linalg.norm(total) > 1e-9 * self.face_areas.sum():
            raise MeshError("face area vectors do not close; mesh is not watertight")
        if self.signed_volume() <= 0:
            raise MeshError("negative enclosed volume; face loops are not oriented outward")

    # -- derived quantities ---------------------------------------------------

    def signed_volume(self) -> float:
        vol = 0.0
        for loop in self.faces:
            pts = self.vertices[list(loop)]
            for i in range(1, len(loop) - 1):
                vol += np.dot(pts[0], _cross(pts[i], pts[i + 1])) / 6.0
        return float(vol)

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
        if contained and (gens @ w).max() > _SUPPORT_TOL:
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
        return VertexCone(vertex, self.face_normals[list(faces)], contained)

    def _sector_generators(self, vertex: int, faces: Sequence[int]) -> np.ndarray:
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
            a = _unit(self.vertices[loop[(i + 1) % len(loop)]] - v)
            b = _unit(self.vertices[loop[(i - 1) % len(loop)]] - v)
            nf = self.face_normals[k]
            # interior corner angle of the face at v, in (0, 2*pi)
            ang = math.atan2(float(np.dot(_cross(a, b), nf)), float(np.dot(a, b))) % (2 * math.pi)
            out += [a, math.cos(ang / 2) * a + math.sin(ang / 2) * _cross(nf, a)]
        return np.array(out)

    def __repr__(self):
        return "Polyhedron(name=%r, V=%d, E=%d, F=%d, complement=%r)" % (
            self.name, len(self.vertices), len(self.edges), len(self.faces), self.complement)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the
    Lipschitz-graph check at stress-only vertices needs it, and the import
    costs more than most ops."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def graph_direction_feasible(normals: np.ndarray, tol: float = 1e-9) -> bool:
    """Heuristic for the Lipschitz-graph property at a vertex: the cone
    boundary is a graph over some plane when a direction has strictly
    positive dot product with every incident outward face normal."""
    m = len(normals)
    if m == 0:
        return False
    c = np.array([0.0, 0.0, 0.0, -1.0])
    A_ub = np.hstack([-np.asarray(normals, dtype=float), np.ones((m, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m),
                  bounds=[(-1, 1)] * 3 + [(-2, 2)], method="highs")
    return bool(res.success and res.x[3] > tol)


def _supporting_normal(gens: np.ndarray) -> Optional[np.ndarray]:
    """A unit w with w . g >= -_SUPPORT_TOL for every generator g, or None.

    If some closed half-space through the origin holds every generator, one
    such half-space has two linearly independent generators on its boundary
    plane, so the candidates +-(g_i x g_j) are exhaustive.  The candidate with
    the largest worst margin is returned; a zero margin (a generator on the
    plane) is accepted.
    """
    i, j = np.triu_indices(len(gens), 1)
    cand = np.cross(gens[i], gens[j])
    norms = np.linalg.norm(cand, axis=1)
    cand = cand[norms > 1e-12] / norms[norms > 1e-12, None]
    cand = np.vstack([cand, -cand])
    margins = (gens @ cand.T).min(axis=0)
    best = int(np.argmax(margins))
    return cand[best] if margins[best] >= -_SUPPORT_TOL else None


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
