import glob
import json
import math
import os
import re
from fractions import Fraction as F
from typing import Dict, Tuple
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, strategies as st
from scipy.spatial import ConvexHull

from polystokes import fixtures as fx
from polystokes import geometry
from polystokes.geometry import (BC_INDEX, MeshError, DomainFileError, Polyhedron,
                                 VertexBound, load_polyhedron, loads_polyhedron)
from polystokes.regularity import ProblemSpec, RegularityQuery, check, max_s

DOMAINS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "domains", "*.domain")))


def rotation(rng):
    q = rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(q)
    if np.linalg.det(u) < 0:
        u[:, 0] *= -1
    return u


# -- loading and validation ---------------------------------------------------

def test_load_cube_file(tmp_path, cube):
    doc = fx.domain_document(cube, fx.with_conditions(cube, 0))
    path = tmp_path / "cube.domain"
    path.write_text(doc)
    poly, bc, bounds = load_polyhedron(path)
    assert len(poly.vertices) == 8
    assert len(poly.edges) == 12
    assert bc.values() == (0,) * 6
    assert bounds == {}


def test_load_tetrahedron_complement():
    tet = fx.platonic("tetrahedron", complement=True)
    doc = fx.domain_document(tet, fx.with_conditions(tet, 0))
    poly, bc, _ = loads_polyhedron(doc)
    assert len(poly.edges) == 6
    expected = 2 * math.pi - math.acos(1.0 / 3.0)
    for e in poly.edges:
        # oracle: the solid's dihedral angle from the face normals; the
        # solid's angle is arccos(1/3) and the flow fills the rest
        kp, km = e.adjacent_faces
        interior = math.pi - math.acos(float(
            np.dot(poly.face_normals[kp], poly.face_normals[km])))
        assert abs((2 * math.pi - interior) - e.theta) < 1e-12
        assert e.theta == pytest.approx(expected, abs=1e-12)
        assert math.sin(e.theta) == pytest.approx(-(2.0 / 3.0) * math.sqrt(2.0), abs=1e-12)


def test_degenerate_face_loop_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        Polyhedron([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [(0, 1), (0, 1, 2), (0, 2, 3), (1, 3, 2), (0, 3, 1)])


def test_unknown_boundary_tag_rejected(cube):
    doc = fx.domain_document(cube, fx.with_conditions(cube, 0))
    with pytest.raises(DomainFileError, match="unknown boundary tag"):
        loads_polyhedron(doc.replace("bc: dirichlet", "bc: nonsense", 1))


def test_non_manifold_rejected():
    # two tetrahedra glued along an edge shared by four faces
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    faces = [(0, 1, 2), (0, 2, 3), (1, 3, 2), (0, 3, 1),
             (0, 4, 1), (0, 3, 4), (1, 4, 3)]
    with pytest.raises(MeshError):
        Polyhedron(verts, faces)


def test_missing_schema_field():
    with pytest.raises(DomainFileError, match="missing required field"):
        loads_polyhedron("vertices: [[0,0,0]]")


def test_vertex_bounds_validation(cube):
    doc = fx.domain_document(cube, fx.with_conditions(cube, 0))
    with pytest.raises(DomainFileError, match="unknown vertex"):
        loads_polyhedron(doc + "vertex_bounds:\n  99: {bound: 0.3}\n")
    with pytest.raises(DomainFileError, match="must carry 'bound'"):
        loads_polyhedron(doc + "vertex_bounds:\n  0: {note: missing}\n")
    with pytest.raises(DomainFileError, match="must exceed -1/2"):
        loads_polyhedron(doc + "vertex_bounds:\n  0: {bound: -0.7}\n")
    poly, bc, bounds = loads_polyhedron(doc + "vertex_bounds:\n  0: {bound: 0.3, note: ok}\n")
    assert bounds[0].bound == 0.3 and bounds[0].note == "ok"


def test_malformed_fields_rejected(malformed_cube_documents):
    for text, message in malformed_cube_documents:
        with pytest.raises(DomainFileError, match=re.escape(message)):
            loads_polyhedron(text)


def test_document_numbers_without_a_point_load(cube):
    # %.17g writes 1e22 as "1e+22", which YAML reads as a string
    big = Polyhedron(cube.vertices * 1e22, cube.faces)
    doc = fx.domain_document(big, fx.with_conditions(big, 0), {0: VertexBound(1e20, "far")})
    assert "[-1e+22, -1e+22, -1e+22]" in doc and "bound: 1e+20" in doc
    poly, bc, bounds = loads_polyhedron(doc)
    assert np.array_equal(poly.vertices, big.vertices) and bounds[0].bound == 1e20


def test_unparsable_document():
    with pytest.raises(DomainFileError, match="unparsable"):
        loads_polyhedron("vertices: [[0,0,0]\nfaces: {")


def _loaded(text):
    poly, bc, bounds = loads_polyhedron(text)
    return (poly.vertices.tolist(), poly.faces, poly.complement, poly.name, bc.values(),
            {v: (b.bound, b.note) for v, b in bounds.items()})


def test_both_yaml_loaders_read_the_same_domains(monkeypatch):
    # libyaml's parser is used where PyYAML has it; the pure-Python one is the
    # only parser elsewhere
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    texts = []
    for path in DOMAINS + sorted(glob.glob(os.path.join(root, "perfbench", "data", "*.domain"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    for name in fx.PLATONIC_NAMES:
        poly = fx.platonic(name)
        texts.append(fx.domain_document(poly, fx.with_conditions(poly, 0, {0: 3}),
                                        {1: VertexBound(0.25, "a note: with 'quotes'")}))
    assert len(texts) == 15
    fast = [_loaded(t) for t in texts]
    monkeypatch.setattr(geometry, "_YAML_LOADER", yaml.SafeLoader)
    assert [_loaded(t) for t in texts] == fast


@pytest.mark.parametrize("text", [
    "vertices: [[0,0,0]\nfaces: {", "vertices:\n\t- [0, 0, 0]\n", "name: 'open\nfaces: []\n",
    "a: b: c\n", "vertices: *missing\n", "- x\ny: z\n", "\x00", "\x7f: 1\n",
    "a: !!python/object:os.system x\n", "vertices: [\ud800]\n"])
@pytest.mark.parametrize("loader", ["C", "pure Python"])
def test_both_yaml_loaders_refuse_malformed_yaml(monkeypatch, text, loader):
    if loader != "C":
        monkeypatch.setattr(geometry, "_YAML_LOADER", yaml.SafeLoader)
    with pytest.raises(DomainFileError, match="^unparsable domain file: "):
        loads_polyhedron(text)


# an empty name is written and read back too
@given(name=st.text(), note=st.text())
@example(name="back\\slash", note="tab\there")
@example(name="line\nbreak", note="\x85")
@example(name="\u2028", note="\u2029")
@example(name="\U0001f600", note="it's \"quoted\"")
def test_name_and_note_survive_the_round_trip(name, note):
    tet = fx.platonic("tetrahedron")
    poly = Polyhedron(tet.vertices, tet.faces, name=name)
    doc = fx.domain_document(poly, fx.with_conditions(poly, 0), {0: VertexBound(0.25, note)})
    if "\\" not in repr(name):
        # a string that YAML reads verbatim is written as before
        assert doc.startswith("name: %r\n" % name)
    for loader in (geometry._YAML_LOADER, yaml.SafeLoader):
        with mock.patch.object(geometry, "_YAML_LOADER", loader):
            got, _, bounds = loads_polyhedron(doc)
        assert (got.name, bounds[0].note) == (name, note)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # a square pyramid whose base has one corner lifted out of its plane
    bent = ([[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0], [0.5, 0.5, 1]],
            [(0, 3, 2, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    with pytest.raises(MeshError, match="not planar"):
        Polyhedron(*bent)
    # a nan tolerance passes every comparison, so it would accept the base
    with pytest.raises(MeshError, match=re.escape("tol must be a finite number >= 0, got %r"
                                                  % tol)):
        Polyhedron(*bent, tol=tol)


# -- dihedral angles ------------------------------------------------------------

def test_cube_dihedral_is_right_angle(cube):
    for e in cube.edges:
        assert e.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_cube_complement_dihedral():
    ext = fx.cube(complement=True)
    for e in ext.edges:
        assert e.theta == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_icosahedron_complement_dihedral():
    ico = fx.platonic("icosahedron", complement=True)
    expected = 2 * math.pi - math.acos(-math.sqrt(5.0) / 3.0)
    for e in ico.edges:
        assert e.theta == pytest.approx(expected, abs=1e-11)
        assert math.sin(e.theta) == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_dihedral_rigid_motion_and_scale_invariance(step):
    rng = np.random.default_rng(7)
    R = rotation(rng)
    shift = rng.normal(size=3)
    moved = Polyhedron(step.vertices @ R.T * 2.5 + shift, step.faces)
    base = sorted(e.theta for e in step.edges)
    got = sorted(e.theta for e in moved.edges)
    assert np.allclose(base, got, atol=1e-12)


def test_complement_toggles_angles(step):
    flipped = Polyhedron(step.vertices, step.faces, complement=True)
    for a, b in zip(step.edges, flipped.edges):
        assert a.endpoints == b.endpoints
        assert b.theta == pytest.approx(2 * math.pi - a.theta, abs=0)


# -- convexity and vertex cones --------------------------------------------------

def test_convexity_calls(cube, step):
    assert cube.is_convex()
    assert not step.is_convex()
    assert not fx.cube(complement=True).is_convex()


def test_convex_implies_half_space(cube):
    for name in fx.PLATONIC_NAMES:
        poly = fx.platonic(name)
        assert poly.is_convex()
        for v in range(len(poly.vertices)):
            assert poly.vertex_cone(v).contained_in_half_space


def test_cube_corner_cone(cube):
    assert cube.vertex_cone(0).contained_in_half_space


def test_cube_corner_complement_cone():
    ext = fx.cube(complement=True)
    assert not ext.vertex_cone(0).contained_in_half_space


def test_platonic_exterior_corners_not_in_half_space():
    for name in fx.PLATONIC_NAMES:
        ext = fx.platonic(name, complement=True)
        for v in range(len(ext.vertices)):
            assert not ext.vertex_cone(v).contained_in_half_space


def test_step_reentrant_vertex_supported_by_plane(step):
    reentrant = [v for v in range(len(step.vertices))
                 if any(e.theta > math.pi for e in step.incident_edges(v))]
    assert reentrant  # the step has reentrant corners
    for v in reentrant:
        assert step.vertex_cone(v).contained_in_half_space


def test_flat_vertex_is_contained_on_both_sides(cube):
    # split the top face into four triangles around its centre: the centre's
    # faces are coplanar, so interior and exterior fluid are both half-spaces
    top = cube.faces[fx.top_face(cube)]
    verts = np.vstack([cube.vertices, cube.vertices[list(top)].mean(axis=0)])
    c = len(cube.vertices)
    fan = [(top[i], top[(i + 1) % 4], c) for i in range(4)]
    faces = [f for f in cube.faces if f != top] + fan
    for complement in (False, True):
        poly = Polyhedron(verts, faces, complement=complement)
        assert poly.vertex_cone(c).contained_in_half_space


def test_cone_predicate_invariant_under_rotation(step):
    # the reentrant corners have a zero-margin supporting plane (the top and
    # bottom faces); the verdict must not depend on how the prism is placed
    # or how large it is
    rng = np.random.default_rng(2024)
    base = [step.vertex_cone(v).contained_in_half_space
            for v in range(len(step.vertices))]
    assert all(base)

    def moved(poly):
        # a rotation, a uniform scaling and a translation
        verts = poly.vertices @ rotation(rng).T * rng.uniform(0.2, 5) + rng.normal(size=3)
        return Polyhedron(verts, poly.faces, complement=poly.complement)

    for _ in range(10):
        moved_step = moved(step)
        got = [moved_step.vertex_cone(v).contained_in_half_space
               for v in range(len(moved_step.vertices))]
        assert got == base
        rep = max_s(ProblemSpec(moved_step, fx.with_conditions(moved_step, 0)), "W1")
        assert str(rep.s_interval) == "(2, 4.39062)"
    # every report of every shipped domain is byte-identical under rotation:
    # openings at pi/2 and 3*pi/2 snap back onto their thresholds
    queries = (RegularityQuery("W1", s=F(5, 2)), RegularityQuery("W2", s=F(11, 10)),
               RegularityQuery("W2", s=F(3, 2), beta=F(1, 2), delta=F(-1, 5)),
               RegularityQuery("EXIST", s=F(5, 2), beta=F(1, 4)),
               RegularityQuery("C2", sigma=F(1, 4), delta=F(1, 4)))

    def reports(poly, bc, bounds, kind):
        spec = ProblemSpec(poly, bc, kind=kind, vertex_bounds=bounds)
        reps = [max_s(spec, t) for t in ("W1", "W2", "EXIST")]
        reps += [check(spec, q) for q in queries]
        return [json.dumps(r.to_dict(), sort_keys=True) for r in reps]

    assert DOMAINS
    for path in DOMAINS:
        poly, bc, bounds = load_polyhedron(path)
        for kind in ("navier-stokes", "stokes"):
            base = reports(poly, bc, bounds, kind)
            for _ in range(10):
                assert reports(moved(poly), bc, bounds, kind) == base, (path, kind)


def test_slip_top_verdict_pinned_under_rotation(cube):
    # the slip edges open at exactly pi/2, where the class bound drops from 1
    # to 2/3; a rotation must not move them below the threshold.  Edge 6
    # misses its window on the bound 2/3 alone, so the verdict is unknown
    # (below the threshold the bound 1 would certify it)
    bc = fx.with_conditions(cube, 0, {fx.top_face(cube): 2})
    delta = [F(0)] * len(cube.edges)
    delta[6] = F(-1, 5)  # edge 6 lies on the slip face
    query = RegularityQuery("W2", s=F(3, 2), beta=F(1, 2), delta=tuple(delta))
    rep = check(ProblemSpec(cube, bc), query)
    assert rep.verdict == "unknown"
    assert [e.edge for e in rep.edges if not e.satisfied] == [6]
    rng = np.random.default_rng(5)
    for _ in range(40):
        moved = Polyhedron(cube.vertices @ rotation(rng).T, cube.faces)
        assert check(ProblemSpec(moved, bc), query).to_dict() == rep.to_dict()


def wedge_prism(theta, **kw):
    """Unit-height prism over the triangle (0, 0), (1, 0), (cos, sin theta);
    edge 0 runs along the z-axis and opens at theta."""
    tri = [[0, 0], [1, 0], [math.cos(theta), math.sin(theta)]]
    verts = [p + [0.0] for p in tri] + [p + [1.0] for p in tri]
    faces = [(0, 3, 5, 2), (0, 2, 1), (0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 5)]
    return Polyhedron(verts, faces, **kw)


def test_opening_snaps_within_tol():
    theta = 0.5 * math.pi + 1e-10
    assert wedge_prism(theta).edges[0].theta == 0.5 * math.pi
    kept = wedge_prism(theta, tol=1e-12).edges[0].theta
    assert kept != 0.5 * math.pi and kept == pytest.approx(theta, abs=1e-14)
    assert wedge_prism(theta, complement=True).edges[0].theta == 1.5 * math.pi


def box_union(xs, ys, zs, boxes, **kw):
    """The union of axis-aligned boxes, meshed as the boundary quads of the
    grid cells xs x ys x zs that some box (lo, hi corners) covers."""
    grid = (xs, ys, zs)
    shape = tuple(len(g) - 1 for g in grid)
    full = np.zeros(shape, dtype=bool)
    for lo, hi in boxes:
        full[tuple(slice(g.index(a), g.index(b)) for g, a, b in zip(grid, lo, hi))] = True
    index, faces = {}, []
    for cell in np.ndindex(*shape):
        if not full[cell]:
            continue
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            for side in (0, 1):
                nb = list(cell)
                nb[a] += 2 * side - 1
                if 0 <= nb[a] < shape[a] and full[tuple(nb)]:
                    continue
                loop = []
                for db, dc in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    ijk = list(cell)
                    ijk[a] += side
                    ijk[b] += db
                    ijk[c] += dc
                    loop.append(index.setdefault(tuple(ijk), len(index)))
                faces.append(loop if side else loop[::-1])
    verts = [[grid[a][ijk[a]] for a in range(3)] for ijk in index]
    return Polyhedron(verts, faces, **kw)


def test_cone_side_is_decided_at_the_vertex():
    # a C-shaped solid: a lower jaw, an upper slab 0.001 above it and a post
    # joining them.  The jaw's tip corner is a plain octant corner, whatever
    # lies just across the gap
    grid = ([0, 5, 50, 100], [-10, 0, 10, 30], [0, 10, 10.001, 20])
    boxes = (((0, 0, 0), (50, 10, 10)), ((0, -10, 10.001), (100, 30, 20)),
             ((0, 0, 10), (5, 10, 10.001)))
    for complement in (False, True):
        poly = box_union(*grid, boxes, complement=complement)
        tip = int(np.flatnonzero((poly.vertices == (50, 10, 10)).all(axis=1))[0])
        thetas = [e.theta for e in poly.incident_edges(tip)]
        assert thetas == [(1.5 if complement else 0.5) * math.pi] * 3
        assert poly.vertex_cone(tip).contained_in_half_space is not complement


def test_cone_side_reads_unsnapped_angles():
    # a pyramid of apex height 1e-6 over a square, closed by a bottom apex:
    # with tol=1e-4 every apex dihedral snaps to pi, but the apex cone is
    # still a strict side of its supporting plane
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    verts = [(x, y, 0.0) for x, y in square] + [(0, 0, 1e-6), (0, 0, -1)]
    faces = [(i, (i + 1) % 4, 4) for i in range(4)] + [((i + 1) % 4, i, 5) for i in range(4)]
    for complement in (False, True):
        poly = Polyhedron(verts, faces, complement=complement, tol=1e-4)
        assert [e.theta for e in poly.incident_edges(4)] == [math.pi] * 4
        assert poly.vertex_cone(4).contained_in_half_space is not complement


def test_vertex_needs_three_faces():
    # a unit cube with an extra vertex at (0.5, 0, 0) in its bottom and front
    # loops: the mesh closes, but that vertex has no cone
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (0.5, 0, 0)]
    faces = [(0, 3, 2, 1, 8), (4, 5, 6, 7), (0, 8, 1, 5, 4),
             (3, 7, 6, 2), (0, 4, 7, 3), (1, 2, 6, 5)]
    with pytest.raises(MeshError, match="vertex 8 has fewer than 3 incident faces"):
        Polyhedron(verts, faces)


# -- global invariants ------------------------------------------------------------

def test_area_vectors_close(cube, step):
    for poly in (cube, step):
        total = (poly.face_normals * poly.face_areas[:, None]).sum(axis=0)
        assert np.linalg.norm(total) < 1e-9 * poly.face_areas.sum()


def test_euler_characteristic(step):
    for poly in (fx.platonic("dodecahedron"), step):
        assert len(poly.vertices) - len(poly.edges) + len(poly.faces) == 2


def test_bc_index_table():
    assert BC_INDEX == {"dirichlet": 0, "tangential-velocity": 1,
                        "slip": 2, "neumann": 3}


# -- fixture face tables ----------------------------------------------------------

def _hull_faces(vertices: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """Outward-oriented polygonal faces of the convex hull of the vertices."""
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


FIXTURE_SOLIDS = fx.PLATONIC_NAMES + ("slip frustum",)


def _fixture(name):
    return fx.slip_frustum() if name == "slip frustum" else fx.platonic(name)


@pytest.mark.parametrize("name", FIXTURE_SOLIDS)
def test_face_table_is_the_convex_hull(name):
    # the convex hull that built these meshes at run time, kept as the
    # reference: the same faces, face order and loop starts
    poly = _fixture(name)
    assert fx._FACES[name] == _hull_faces(poly.vertices)
    assert poly.faces == fx._FACES[name]


@pytest.mark.parametrize("name", FIXTURE_SOLIDS)
def test_face_loops_are_planar_and_outward(name):
    vertices = _fixture(name).vertices
    for loop in fx._FACES[name]:
        pts = vertices[list(loop)]
        origin = pts.mean(axis=0)
        # Newell's normal: a loop counterclockwise seen from outside points out
        normal = np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
        normal /= np.linalg.norm(normal)
        assert np.abs((pts - origin) @ normal).max() < 1e-12
        others = np.delete(vertices, list(loop), axis=0)
        assert ((others - origin) @ normal).max() < -1e-6
    for complement in (False, True):
        poly = Polyhedron(vertices, fx._FACES[name], complement=complement)
        assert len(poly.vertices) - len(poly.edges) + len(poly.faces) == 2


# -- the Lipschitz-graph direction ------------------------------------------------

def _lp_graph_direction(normals: np.ndarray, tol: float = 1e-9) -> bool:
    """The linear program that decided the graph direction before the closed
    form, kept as its reference: maximize t with n . w >= t for every normal
    over the box |w_i| <= 1."""
    from scipy.optimize import linprog
    m = len(normals)
    if m == 0:
        return False
    c = np.array([0.0, 0.0, 0.0, -1.0])
    A_ub = np.hstack([-np.asarray(normals, dtype=float), np.ones((m, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m),
                  bounds=[(-1, 1)] * 3 + [(-2, 2)], method="highs")
    return bool(res.success and res.x[3] > tol)


def _units(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _normal_set(kind: str, m: int, rng) -> np.ndarray:
    """m unit normals of one kind; the degenerate kinds are the rank-deficient
    sets the closed form meets without a branch of its own."""
    x = _units(rng.normal(size=(m, 3)))
    w = _units(rng.normal(size=3))
    if kind == "hemisphere":  # about w, tilted out of it by up to 0.3
        x[x @ w < 0] *= -1
        return _units(x + rng.uniform(-0.3, 0.3) * w)
    if kind == "coplanar":  # on a great circle
        return _units(x - np.outer(x @ w, w))
    if kind == "antipodal":
        return np.vstack([x, -x[:1]])
    if kind == "near-parallel":
        return _units(w + 1e-6 * rng.normal(size=(m, 3)))
    if kind == "duplicated":
        return np.vstack([x, x[rng.integers(0, m, size=m)]])
    if kind == "pyramid":  # the lateral faces of an apex over a regular polygon
        phi = 2 * math.pi * np.arange(m) / m
        tilt = rng.uniform(0.05, math.pi - 0.05)
        return np.column_stack([np.sin(tilt) * np.cos(phi), np.sin(tilt) * np.sin(phi),
                                np.full(m, np.cos(tilt))])
    return x


@given(kind=st.sampled_from(["random", "hemisphere", "coplanar", "antipodal",
                             "near-parallel", "duplicated", "pyramid"]),
       m=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_graph_direction_is_the_linear_program(kind, m, seed):
    # a pyramid apex has 3 to 39 faces
    m = 3 + 6 * (m - 1) if kind == "pyramid" else m
    normals = _normal_set(kind, m, np.random.default_rng(seed))
    assert geometry.graph_direction_feasible(normals) == _lp_graph_direction(normals), normals


def test_graph_direction_of_the_empty_set():
    assert not geometry.graph_direction_feasible(np.zeros((0, 3)))
    assert not _lp_graph_direction(np.zeros((0, 3)))


def test_graph_direction_at_every_fixture_and_domain_vertex(crossed_boxes):
    polys = [fx.platonic(name, complement) for name in fx.PLATONIC_NAMES
             for complement in (False, True)]
    polys += [fx.slip_frustum(), fx.step_prism(), crossed_boxes]
    polys += [load_polyhedron(path)[0] for path in DOMAINS]
    got = [geometry.graph_direction_feasible(poly.vertex_cone(v).normals)
           for poly in polys for v in range(len(poly.vertices))]
    want = [_lp_graph_direction(poly.vertex_cone(v).normals)
            for poly in polys for v in range(len(poly.vertices))]
    assert got == want
    # only the crossed boxes' vertex 8 has no graph direction
    assert len(got) == 179 and got.count(False) == 1
