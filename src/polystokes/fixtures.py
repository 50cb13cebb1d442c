"""Built-in domain fixtures: Platonic solids, the unit cube, and step prisms.

Each solid is its vertex coordinates and a literal table of outward face
loops, as the step prism writes its faces.  These meshes back the worked
examples and the published-value verification table.
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


# Outward-oriented face loops of the fixture solids, counterclockwise seen
# from outside, over the vertex order of `_platonic_vertices` and
# `slip_frustum`.  The face order fixes the edge ids of each mesh.
_FACES: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    "tetrahedron": ((2, 0, 1), (3, 0, 2), (2, 1, 3), (1, 0, 3)),
    "cube": ((4, 0, 2, 6), (1, 0, 4, 5), (5, 4, 6, 7), (2, 0, 1, 3), (6, 2, 3, 7),
             (3, 1, 5, 7)),
    "octahedron": ((3, 1, 5), (5, 0, 3), (4, 1, 3), (3, 0, 4), (2, 0, 5), (5, 1, 2),
                   (4, 0, 2), (2, 1, 4)),
    "dodecahedron": ((6, 13, 4, 8, 14), (14, 8, 0, 10, 2), (16, 10, 0, 9, 1),
                     (3, 12, 2, 10, 16), (5, 11, 1, 9, 15), (15, 9, 0, 8, 4),
                     (5, 15, 4, 13, 19), (3, 16, 1, 11, 17), (17, 11, 5, 19, 7),
                     (6, 14, 2, 12, 18), (19, 13, 6, 18, 7), (18, 12, 3, 17, 7)),
    "icosahedron": ((2, 0, 1), (6, 2, 4), (5, 0, 6), (6, 0, 2), (3, 1, 7), (7, 0, 5),
                    (1, 0, 7), (4, 2, 8), (2, 1, 8), (8, 1, 3), (8, 3, 9), (9, 4, 8),
                    (10, 4, 9), (6, 4, 10), (10, 5, 6), (7, 5, 11), (9, 3, 11),
                    (11, 3, 7), (10, 9, 11), (11, 5, 10)),
    "slip frustum": ((5, 4, 6, 7), (4, 0, 2, 6), (6, 2, 3, 7), (5, 1, 0, 4), (7, 3, 1, 5),
                     (2, 0, 1, 3)),
}


def platonic(name: str, complement: bool = False) -> Polyhedron:
    """One of the five regular solids, optionally as an exterior domain."""
    return Polyhedron(_platonic_vertices(name), _FACES[name], complement=complement,
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
    return Polyhedron(np.array(verts, dtype=float), _FACES["slip frustum"], name="slip frustum")


def _yaml_string(text: str) -> str:
    """A YAML scalar that loads back as exactly ``text``.

    A string whose repr has no backslash is written as that repr, which YAML
    reads verbatim.  Any other string becomes a double-quoted scalar with
    backslash, double quote and every non-printable character escaped by
    code point: YAML folds a literal NEL, line or paragraph separator into a
    space, and libyaml refuses the surrogate pairs of JSON's escapes.
    """
    quoted = repr(text)
    if "\\" not in quoted:
        return quoted
    out = []
    for ch in text:
        code = ord(ch)
        if ch in '"\\':
            out.append("\\" + ch)
        elif ch.isprintable():
            out.append(ch)
        else:
            out.append("\\u%04x" % code if code < 0x10000 else "\\U%08x" % code)
    return '"%s"' % "".join(out)


def domain_document(poly: Polyhedron, bc: BoundaryAssignment,
                    bounds: Optional[Dict[int, VertexBound]] = None) -> str:
    """Serialize a domain back to the text schema understood by the loader."""
    lines = []
    if poly.name is not None:
        lines.append("name: %s" % _yaml_string(poly.name))
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
            lines.append("  %d: {bound: %.17g, note: %s}" % (v, vb.bound, _yaml_string(vb.note)))
    return "\n".join(lines) + "\n"
