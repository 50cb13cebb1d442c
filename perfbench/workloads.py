"""Seeded inputs for the three benchmark workloads.

Every workload is an endless sequence of *cycles*.  A cycle is a fixed list of
operations whose structure is the same in every cycle and for every seed; the
seed only draws the free parameters (rigid motions, wedge angles,
point-check exponents).  In the domain workloads cycle 0 holds the
unmoved copies, and every later cycle the same domains under fresh motions.  The timed phase runs whole cycles, so the mix
of operations, and with it the median latency, does not depend on where the
clock happened to stop.

An operation is one ``polystokes`` command line run in-process.  Its input
domain file (if any) is generated here, through ``fixtures.domain_document``,
and written next to the other inputs of the run by whoever executes it.

The same ``(workload, seed, cycle)`` always gives the same operations: every
random stream is keyed on those three values, never on earlier draws.
"""

from __future__ import annotations

import math
import os
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from polystokes import fixtures
from polystokes.geometry import (BC_NAMES, BoundaryAssignment, Polyhedron,
                                 VertexBound, loads_polyhedron)

WORKLOADS = ("domains", "pencils", "numeric-domains")

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SHIPPED = ("cube-exterior", "cube-mixed-stress", "cube", "frustum-slip", "step")

# pencils: the strip every pencil query searches, and the seeded pairs
PENCIL_WINDOW = (0.0, 2.4)
PENCIL_PAIRS = ((1, 1), (2, 2), (1, 2), (1, 3), (2, 3), (0, 0), (3, 3))
ANGLE_RANGE = (0.1 * math.pi, 1.9 * math.pi)
# the numeric rows of `polystokes verify-paper`: (opening / pi, pair, check, value)
VERIFY_WEDGES = (
    (1.5, (0, 0), "value", 0.54448373),
    (1.5, (3, 3), "value", 0.54448373),
    (0.5, (0, 0), "value", 2.0),
    (1.5, (0, 2), "value", 1.0 / 3.0),
    (1.4, (0, 2), "greater", 1.0 / 3.0),
    (0.5, (0, 3), "greater", 0.25),
)

Op = Dict[str, object]


def _rng(seed: int, workload: str, *key) -> np.random.Generator:
    """Independent stream per (seed, workload, key); Python's str hash is salted,
    so the workload name enters through a fixed checksum."""
    words = [int(seed), zlib.crc32(workload.encode())]
    for k in key:
        words.append(zlib.crc32(str(k).encode()))
    return np.random.default_rng(words)


# -- domain transformations ----------------------------------------------------------

def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed proper rotation (unit quaternion).

    It moves an opening of pi/2 or 3*pi/2 off its threshold by rounding (the
    ``threshold-flip`` defect of ``oracle.py``).  Only the numeric-domains
    meshes, whose exponents come from the collocation solver and not from a
    class bound, and ``tests/test_known_defects.py`` use it."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _exact_rotation(rng: np.random.Generator) -> np.ndarray:
    """One of the 24 rotations that map the coordinate axes onto themselves:
    a signed permutation matrix of determinant 1, exact in floating point."""
    m = np.zeros((3, 3))
    m[np.arange(3), rng.permutation(3)] = rng.choice((-1.0, 1.0), size=3)
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    return m


def moved_document(poly: Polyhedron, bc: Sequence[int],
                   bounds: Dict[int, VertexBound], rng: np.random.Generator,
                   exact: bool = True) -> str:
    """The domain under a seeded rigid motion, uniform scaling, vertex
    relabelling, face reordering and face-loop rotation, as a domain file.

    An exact motion is a rotation of the cube group, a power-of-two scaling
    (1/4 to 4) and an integer shift times the scale: on meshes with integer
    coordinates openings at pi/2 and 3*pi/2 stay exactly there.  Otherwise the
    rotation is uniform, the scaling 0.2 to 5 and the shift uniform, so that
    equal openings of one mesh differ in their last bits."""
    if exact:
        scale = float(2.0 ** int(rng.integers(-2, 3)))
        shift = rng.integers(-3, 4, size=3) * scale
        rotation = _exact_rotation(rng)
    else:
        scale = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        shift = rng.uniform(-3.0, 3.0, size=3) * scale
        rotation = _rotation(rng)
    verts = scale * (poly.vertices @ rotation.T) + shift
    perm = rng.permutation(len(verts))  # old index -> new index
    new_verts = np.empty_like(verts)
    new_verts[perm] = verts
    faces, ds = [], []
    for k in rng.permutation(len(poly.faces)):
        loop = [int(perm[i]) for i in poly.faces[k]]
        r = int(rng.integers(len(loop)))
        faces.append(loop[r:] + loop[:r])
        ds.append(bc[k])
    moved = Polyhedron(new_verts, faces, complement=poly.complement,
                       name=poly.name, tol=poly.tol)
    new_bounds = {int(perm[v]): b for v, b in bounds.items()}
    return fixtures.domain_document(moved, BoundaryAssignment(tuple(ds)), new_bounds)


def plain_document(poly: Polyhedron, bc: Sequence[int],
                   bounds: Dict[int, VertexBound]) -> str:
    """The unmoved copy, serialized the same way."""
    return fixtures.domain_document(poly, BoundaryAssignment(tuple(bc)), bounds)


# -- the domains workload --------------------------------------------------------------

def _face_neighbours(poly: Polyhedron) -> List[set]:
    nbrs = [set() for _ in poly.faces]
    for e in poly.edges:
        a, b = e.adjacent_faces
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def _decided_pattern(rng: np.random.Generator, poly: Polyhedron) -> Tuple[int, ...]:
    """A boundary pattern whose every edge exponent is a closed form or a class
    bound: velocity everywhere, stress everywhere, or velocity with isolated
    faces of another condition.  Tangential-velocity and slip faces stay off
    edges opening beyond 3*pi/2, where the first-eigenvalue bound of the
    existence result runs out and the collocation solver would take over."""
    r = rng.random()
    if r < 0.2:
        return (0,) * len(poly.faces)
    if r < 0.3:
        return (3,) * len(poly.faces)
    nbrs = _face_neighbours(poly)
    wide = set()
    for e in poly.edges:
        if e.theta > 1.5 * math.pi + 1e-9:
            wide.update(e.adjacent_faces)
    d = [0] * len(poly.faces)
    for k in rng.permutation(len(poly.faces)):
        if rng.random() < 0.5 and all(d[j] == 0 for j in nbrs[k]):
            choices = (3,) if k in wide else (1, 2, 3)
            d[k] = int(choices[int(rng.integers(len(choices)))])
    return tuple(d)


def _point_exponents(rng: np.random.Generator) -> Tuple[str, str]:
    """An integrability exponent s = p/q in (6/5, 4] and a Holder exponent.

    q is 11 or 13 and prime to p, so s is never an end of a scanned interval
    (their denominators are 1, 2, 3, 5 and 7), and s stays above the 6/5
    floor of the W2 scan: the ``interval-end`` and ``w2-floor`` defects of
    ``oracle.py`` are reproduced by ``tests/test_known_defects.py``, not here."""
    q = int(rng.choice((11, 13)))
    p = int(rng.choice([p for p in range(6 * q // 5 + 1, 4 * q + 1) if p % q]))
    sigma = int(rng.integers(1, 20)) / 20.0
    return "%d/%d" % (p, q), repr(sigma)


def _domain_shapes() -> List[Tuple[str, Polyhedron, Optional[Tuple[int, ...]], Dict]]:
    """(label, mesh, fixed pattern or None for a seeded one, vertex bounds)."""
    shapes = []
    for name in SHIPPED:
        with open(os.path.join(DATA_DIR, name + ".domain"), encoding="utf-8") as fh:
            poly, bc, bounds = loads_polyhedron(fh.read())
        shapes.append(("file:" + name, poly, bc.values(), bounds))
    for name in fixtures.PLATONIC_NAMES:
        for complement in (False, True):
            label = name + (" exterior" if complement else "")
            shapes.append((label, fixtures.platonic(name, complement=complement), None, {}))
    shapes.append(("step prism", fixtures.step_prism(), None, {}))
    return shapes


def domain_items(seed: int) -> List[Dict]:
    """The sixteen domains of a run, each with its pattern and point-check exponents.

    The boundary patterns are one fixed draw, the same for every seed: they
    set how much work an op does, and a seed must not change the op mix.  The
    exponents are the same in every cycle, so that the point check of a moved
    copy can be compared with that of the unmoved one."""
    items = []
    for i, (label, poly, fixed, bounds) in enumerate(_domain_shapes()):
        bc = fixed if fixed is not None else \
            _decided_pattern(_rng(0, "domains", "pattern", i), poly)
        s, sigma = _point_exponents(_rng(seed, "domains", "item", i))
        items.append({"label": label, "poly": poly, "bc": tuple(bc),
                      "bounds": bounds, "s": s, "sigma": sigma})
    return items


def scan_argv(path: str) -> List[str]:
    return ["analyze", "--input", path, "--format", "json"]


def point_argv(path: str, s: str, sigma: str) -> List[str]:
    return ["analyze", "--input", path, "--s", s, "--sigma", sigma,
            "--target", "w1", "--target", "w2", "--target", "c1",
            "--target", "exist", "--format", "json"]


# -- the numeric-domains workload --------------------------------------------------------

def numeric_items() -> List[Dict]:
    """Meshes whose every edge takes the collocation solver and shares one wedge.

    No class bound covers the pairs (2, 2) and (1, 1).  The tetrahedra open
    below pi/2 (second-eigenvalue branch); the cube opens at pi/2 on all twelve
    edges.  Two tetrahedra and one cube keep the median op a tetrahedron,
    instead of the gap between the two sizes.
    """
    items = []
    for name, d in (("tetrahedron", 2), ("tetrahedron", 1), ("cube", 2)):
        poly = fixtures.platonic(name)
        label = "%s, %s on every face" % (name, BC_NAMES[d])
        items.append({"label": label, "poly": poly, "bc": (d,) * len(poly.faces), "bounds": {}})
    return items


def numeric_argv(path: str, n: Optional[int] = None) -> List[str]:
    argv = ["analyze", "--input", path, "--target", "w2", "--format", "json"]
    return argv + ["--n", str(n)] if n is not None else argv


# -- the pencils workload ----------------------------------------------------------------

def pencil_argv(theta: str, pair: Tuple[int, int], n: Optional[int] = None) -> List[str]:
    argv = ["pencil", "--theta", theta, "--bc", "%d,%d" % pair,
            "--window", "%g,%g" % PENCIL_WINDOW, "--format", "json"]
    return argv + ["--n", str(n)] if n is not None else argv


def _seeded_wedges(seed: int, k: int) -> List[Op]:
    """One wedge per pair; angles are stratified so that every cycle covers each
    seventh of (0.1*pi, 1.9*pi) once, rotating the strata over the pairs."""
    rng = _rng(seed, "pencils", "cycle", k)
    lo, hi = ANGLE_RANGE
    width = (hi - lo) / len(PENCIL_PAIRS)
    ops = []
    for p, pair in enumerate(PENCIL_PAIRS):
        stratum = (p + k) % len(PENCIL_PAIRS)
        theta = lo + (stratum + rng.uniform(0.02, 0.98)) * width
        if pair[0] != pair[1] and rng.random() < 0.5:
            pair = (pair[1], pair[0])
        ops.append({"argv": pencil_argv("%.17g" % theta, pair),
                    "meta": {"kind": "pencil", "theta": theta, "pair": list(pair)}})
    return ops


# -- cycles and warm-up ---------------------------------------------------------------------

def cycle_ops(workload: str, seed: int, k: int, items: List[Dict]) -> List[Op]:
    """Operations of cycle ``k``.  An op carries ``argv`` (with ``{input}`` where
    the generated domain file goes), ``doc`` (that file's text) and ``meta``
    (what the correctness oracle needs)."""
    if workload == "pencils":
        ops = []
        if k == 0:  # the published wedges once per run: no wedge repeats
            for a, pair, check, value in VERIFY_WEDGES:
                theta = a * math.pi  # the value `parse_theta("%g*pi" % a)` gives
                ops.append({"argv": pencil_argv("%g*pi" % a, pair),
                            "meta": {"kind": "pencil", "theta": theta, "pair": list(pair),
                                     "paper": [check, value]}})
        return ops + _seeded_wedges(seed, k)
    ops = []
    for i, it in enumerate(items):
        # cycle 0 runs the unmoved copies: their results are the references
        # for the moved copies of every later cycle
        if k == 0:
            doc = plain_document(it["poly"], it["bc"], it["bounds"])
        else:
            doc = moved_document(it["poly"], it["bc"], it["bounds"],
                                 _rng(seed, workload, "motion", k, i),
                                 exact=workload == "domains")
        if workload == "domains":
            ops.append({"argv": scan_argv("{input}"), "doc": doc,
                        "meta": {"kind": "scan", "item": i}})
            ops.append({"argv": point_argv("{input}", it["s"], it["sigma"]), "doc": doc,
                        "meta": {"kind": "point", "item": i}})
        else:
            ops.append({"argv": numeric_argv("{input}"), "doc": doc,
                        "meta": {"kind": "numeric", "item": i}})
    return ops


def items_for(workload: str, seed: int) -> List[Dict]:
    if workload == "domains":
        return domain_items(seed)
    if workload == "numeric-domains":
        return numeric_items()
    return []


def warmup_op(workload: str, seed: int, items: List[Dict]) -> Op:
    """The op that finishes set-up.  It runs the workload's whole code path once;
    the collocation workloads run it at the smallest collocation size, so that
    set-up time is import and first-call cost rather than one more solve."""
    rng = _rng(seed, workload, "warmup")
    if workload == "pencils":
        theta = rng.uniform(*ANGLE_RANGE)
        return {"argv": pencil_argv("%.17g" % theta, (1, 3), n=8), "meta": {}}
    it = items[0]
    doc = moved_document(it["poly"], it["bc"], it["bounds"], rng,
                         exact=workload == "domains")
    argv = scan_argv("{input}") if workload == "domains" else numeric_argv("{input}", n=8)
    return {"argv": argv, "doc": doc, "meta": {}}


def resolve_argv(op: Op, path: Optional[str]) -> List[str]:
    return [path if a == "{input}" else a for a in op["argv"]]
