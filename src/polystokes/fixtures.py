"""Built-in domain fixtures: Platonic solids, the unit cube, and step prisms.

The regular solids are generated from their vertex coordinates via a convex
hull, merging coplanar hull triangles into the true polygonal faces.  These
meshes back the worked examples and the published-value verification table.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .geometry import BC_NAMES, BoundaryAssignment, Polyhedron, VertexBound

__all__ = [
    "cube",
    "platonic",
    "step_prism",
    "with_conditions",
    "domain_document",
    "PLATONIC_NAMES",
]

PLATONIC_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

_PHI = (1 + math.sqrt(5)) / 2


def _platonic_vertices(name: str) -> np.ndarray:
    if name == "tetrahedron":
        return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    if name == "cube":
        return np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                        dtype=float)
    if name == "octahedron":
        return np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                         [0, 0, 1], [0, 0, -1]], dtype=float)
    if name == "icosahedron":
        pts = []
        for a in (-1.0, 1.0):
            for b in (-_PHI, _PHI):
                pts += [[0, a, b], [a, b, 0], [b, 0, a]]
        return np.array(pts)
    if name == "dodecahedron":
        pts = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        inv = 1 / _PHI
        for a in (-inv, inv):
            for b in (-_PHI, _PHI):
                pts += [[0, a, b], [a, b, 0], [b, 0, a]]
        return np.array(pts, dtype=float)
    raise ValueError("unknown solid %r (expected one of %s)" % (name, ", ".join(PLATONIC_NAMES)))


def _hull_faces(vertices: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """Outward-oriented polygonal faces of the convex hull of the vertices."""
    # imported on use: `analyze` and `pencil` never build a fixture mesh
    from scipy.spatial import ConvexHull
    hull = ConvexHull(vertices)
    # group coplanar simplices by their hull equation
    groups: Dict[Tuple[int, ...], list] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq / np.linalg.norm(eq[:3]), 8))
        groups.setdefault(key, []).append(simplex)
    faces = []
    center = vertices.mean(axis=0)
    for key, simplices in groups.items():
        normal = np.array(key[:3])
        ids = sorted(set(int(i) for s in simplices for i in s))
        pts = vertices[ids]
        origin = pts.mean(axis=0)
        # order the face vertices counterclockwise around the outward normal
        u = pts[0] - origin
        u = u / np.linalg.norm(u)
        v = np.cross(normal, u)
        ang = np.arctan2((pts - origin) @ v, (pts - origin) @ u)
        loop = [ids[i] for i in np.argsort(ang)]
        if np.dot(normal, center - origin) > 0:  # normal must point away from the solid
            loop.reverse()
        faces.append(tuple(loop))
    return tuple(faces)


def platonic(name: str, complement: bool = False) -> Polyhedron:
    """One of the five regular solids, optionally as an exterior domain."""
    verts = _platonic_vertices(name)
    return Polyhedron(verts, _hull_faces(verts), complement=complement,
                      name=name + (" exterior" if complement else ""))


def cube(complement: bool = False) -> Polyhedron:
    return platonic("cube", complement=complement)


def step_prism(height: float = 1.0) -> Polyhedron:
    """An L-shaped prism: step domain with angles pi/2 and 3*pi/2 at the edges.

    Cross-section [0,2]^2 minus (1,2)^2, extruded to the given height.  Every
    vertex cone is contained in a half-space (the reentrant-edge vertices are
    supported by the horizontal planes through them).
    """
    lshape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    n = len(lshape)
    verts = [(x, y, 0.0) for x, y in lshape] + [(x, y, height) for x, y in lshape]
    faces = [tuple(range(n - 1, -1, -1)),           # bottom, seen from below
             tuple(range(n, 2 * n))]                # top
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, j, j + n, i + n))          # side wall
    return Polyhedron(np.array(verts), faces, name="step prism")


def with_conditions(poly: Polyhedron, default: int = 0,
                    overrides: Optional[Dict[int, int]] = None) -> BoundaryAssignment:
    """Boundary assignment with one default condition and per-face overrides."""
    d = [default] * len(poly.faces)
    for k, v in (overrides or {}).items():
        d[k] = v
    return BoundaryAssignment(tuple(d))


def top_face(poly: Polyhedron) -> int:
    """Index of the face whose centroid has the largest z (used by fixtures)."""
    heights = [poly.vertices[list(loop)][:, 2].mean() for loop in poly.faces]
    return int(np.argmax(heights))


def slip_frustum() -> Polyhedron:
    """Convex frustum whose larger top face meets the sides at angles < pi/2.

    Fixture for the mixed problem with a slip condition on the top face and
    the velocity prescribed elsewhere.
    """
    verts = [(x, y, 0.0) for x in (-1, 1) for y in (-1, 1)]
    verts += [(2 * x, 2 * y, 1.0) for x in (-1, 1) for y in (-1, 1)]
    verts = np.array(verts, dtype=float)
    return Polyhedron(verts, _hull_faces(verts), name="slip frustum")


def domain_document(poly: Polyhedron, bc: BoundaryAssignment,
                    bounds: Optional[Dict[int, VertexBound]] = None) -> str:
    """Serialize a domain back to the text schema understood by the loader."""
    lines = []
    if poly.name:
        lines.append("name: %r" % poly.name)
    lines.append("complement: %s" % ("true" if poly.complement else "false"))
    lines.append("vertices:")
    for p in poly.vertices:
        lines.append("  - [%.17g, %.17g, %.17g]" % tuple(p))
    lines.append("faces:")
    for loop, d in zip(poly.faces, bc.values()):
        lines.append("  - {loop: [%s], bc: %s}" % (", ".join(map(str, loop)), BC_NAMES[d]))
    if bounds:
        lines.append("vertex_bounds:")
        for v, vb in sorted(bounds.items()):
            lines.append("  %d: {bound: %.17g, note: %r}" % (v, vb.bound, vb.note))
    return "\n".join(lines) + "\n"
