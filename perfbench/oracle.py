"""References and checks for every benchmark op.

No reference comes from the code path an op measures:

* pencils with the pairs (0,0) and (3,3): every reported eigenvalue must be a
  root of the transcendental equation sin(l t) (l^2 sin^2 t - sin^2(l t)) = 0
  (written out here), and the real root that ``mu_real_root`` selects must be
  among them;
* pencils with the pairs (1,1), (2,2) and (1,2): the spectrum separates, and
  must equal {k pi/t} u {|1 +- k pi/t|} in the strip (k = 1, 2, ... for the
  first set and k = 0, 1, ... for the second), with k running over the
  half-integers for (1,2), where 1 itself is also an eigenvalue;
* other pencils: the spectrum must be closed under conjugation, and the
  eigenvalue of smallest real part must also be one of the mirrored wedge
  (the pair swapped), by the residual test of the solver at the finer size;
* the published ``verify-paper`` wedges: the published value;
* moved domains: the result on the unmoved copy, compared on what does not
  depend on labels (verdicts, intervals, sorted edge and vertex records);
* point checks: agreement with the interval the scan of the same domain gave;
* the numeric-domains meshes (one condition on every face): each edge
  exponent from the separable spectrum above, with the parity rule for the
  second eigenvalue.

Four open defects of the program make some of these checks fail: threshold
flips of angles that land within rounding of a class-bound threshold
(``threshold-flip``); the 6/5 floor that the W2 scan adds and the point check
does not (``w2-floor``); point checks and scans that disagree exactly at an
interval end, where the check compares a float class bound and the scan its
recovered rational (``interval-end``); and the sampled half-space predicate
of vertex cones, which a rotation can flip between the rules R1 and R2
(``sampled-cone``).  The workloads keep clear of the first three (see
``workloads.py``), and ``tests/test_known_defects.py`` reproduces them.  A
failure that does occur counts as a failed op whatever its kind; the label
only says which defect it looks like.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from polystokes.edge_pencil import (DihedronPencil, MU_THRESHOLD_TWO_THIRDS,
                                    mu_real_root, pencil_residual)

EIG_TOL = 1e-6       # solver refinement tolerance; agreement with formulas
RES_TOL = 1e-8       # the solver's residual acceptance level
# |lambda| below this is the zero eigenvalue: optional, and when it is double
# the solver may keep one of a split pair +-1e-6j
ZERO = 1e-5
ANGLE_TOL = 1e-9     # mesh tolerance on opening angles
REL_TOL = 1e-7       # float interval endpoints and exponents of moved domains

# opening angles at which a class bound of the program changes value
THRESHOLDS = (0.375 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi, 1.5 * math.pi,
              MU_THRESHOLD_TWO_THIRDS, 0.5 * MU_THRESHOLD_TWO_THIRDS)

KNOWN_DEFECTS = ("threshold-flip", "w2-floor", "interval-end", "sampled-cone")


class Failure(Exception):
    """An op output that disagrees with its reference; ``label`` names a known
    defect of the program or is None."""

    def __init__(self, reason: str, label: Optional[str] = None):
        super().__init__(reason)
        self.label = label


# -- pencils -----------------------------------------------------------------------------

def transcendental(lam: complex, theta: float) -> complex:
    s = cmath.sin(lam * theta)
    return s * (lam * lam * math.sin(theta) ** 2 - s * s)


def separable_values(theta: float, pair: Sequence[int], lo: float, hi: float) -> List[float]:
    """Real eigenvalues of the separable pairs (1,1), (2,2) and (1,2) in [lo, hi]."""
    half = sorted(pair) == [1, 2]
    step = math.pi / theta
    vals = {1.0} if half else set()
    k = 0.5 if half else 0.0
    while k * step - 1.0 <= hi + 1.0:
        for v in (k * step, abs(1.0 + k * step), abs(1.0 - k * step)):
            if lo - EIG_TOL <= v <= hi + EIG_TOL and v > ZERO:
                vals.add(v)
        k += 1.0
    return sorted(vals)


def _near(x: complex, values: Sequence[complex], tol: float = EIG_TOL) -> bool:
    return any(abs(x - v) <= tol for v in values)


def check_pencil(meta: Dict, out: str, window: Tuple[float, float], n: int = 32):
    """Check the JSON output of one ``pencil`` query; raises :class:`Failure`."""
    data = json.loads(out)
    theta, pair = meta["theta"], tuple(meta["pair"])
    if abs(data["theta"] - theta) > 1e-12 or tuple(data["bc"]) != pair:
        raise Failure("echoed wedge %r %r differs from the query" % (data["theta"], data["bc"]))
    eig = [complex(e["re"], e["im"]) for e in data["eigenvalues"]]
    unresolved = [complex(z[0], z[1]) for z in data["unresolved"]]
    lo, hi = window
    for lam in eig:
        if abs(lam) > ZERO and abs(lam.imag) > EIG_TOL and not _near(lam.conjugate(), eig):
            raise Failure("eigenvalue %r has no conjugate partner" % lam)
    key = tuple(sorted(pair))
    if key in ((0, 0), (3, 3)):
        for lam in eig:
            if abs(lam) > ZERO and abs(transcendental(lam, theta)) > RES_TOL * (1 + abs(lam) ** 3):
                raise Failure("eigenvalue %r is not a root of the transcendental equation" % lam)
        mu = mu_real_root(theta)
        if lo + EIG_TOL < mu < hi - EIG_TOL and not _near(mu, eig):
            raise Failure("real root %.10g of the edge equation is missing" % mu)
    elif key in ((1, 1), (2, 2), (1, 2)):
        expected = separable_values(theta, pair, lo, hi)
        for lam in eig:
            if abs(lam) > ZERO and not _near(lam, expected):
                raise Failure("eigenvalue %r is not in the separable spectrum" % lam)
        for v in expected:
            inside = lo + EIG_TOL < v < hi - EIG_TOL
            if inside and not _near(v, eig) and not _near(v, unresolved):
                raise Failure("separable eigenvalue %.10g is missing" % v)
    else:
        # one residual at the finer size costs about a tenth of the op, so only
        # the eigenvalue that sets the edge exponent is tested on the mirror
        first = min((lam for lam in eig if abs(lam) > ZERO), key=lambda z: z.real, default=None)
        mirror = DihedronPencil(theta, pair[1], pair[0])
        if first is not None and pencil_residual(mirror, first, 2 * n) > RES_TOL:
            raise Failure("eigenvalue %r is not one of the mirrored wedge" % first)
    if "paper" in meta:
        mode, value = meta["paper"]
        if mode == "value" and not _near(value, eig):
            raise Failure("published value %.8g missing" % value)
        if mode == "greater":
            first = min((lam.real for lam in eig if lam.real > 1e-3), default=None)
            if first is None or not first > value:
                raise Failure("first eigenvalue %r not above the published %.8g" % (first, value))


# -- domain reports ----------------------------------------------------------------------

def _num(x):
    """Interval endpoint or exponent as an exact Fraction or a float."""
    if isinstance(x, list):
        return Fraction(x[0], x[1])
    return x


def _same(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)):
        a, b = float(a), float(b)
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


_IDS = re.compile(r"\b(edge|vertex) \d+")


def _interval(d) -> Optional[tuple]:
    if d is None:
        return None
    return (_num(d["lo"]), _num(d["hi"]), d["lo_closed"], d["hi_closed"])


def summarize(report: Dict) -> tuple:
    """What a report says that does not depend on vertex, edge or face labels."""
    # angles of equal edges differ in the last bits; sort on rounded values
    edges = sorted(((e["theta"], e["mu"], e["mu_provenance"], e["satisfied"])
                    for e in report["edges"]),
                   key=lambda e: (round(e[0], 6), e[2], round(e[1], 6), e[3]))
    vertices = sorted((v["satisfied"], _IDS.sub(r"\1 #", v["finding"]),
                       _IDS.sub(r"\1 #", v["requirement"])) for v in report["vertices"])
    return (report["verdict"], _interval(report.get("s_interval")),
            [list(e) for e in edges], vertices, sorted(set(report["citations"])))


def summarize_output(out: str) -> Dict:
    data = json.loads(out)
    summary = {k: summarize(v) for k, v in data.items() if k != "class_results"}
    summary["class_results"] = sorted(r["row_id"] for r in data.get("class_results", []))
    return summary


def _edge_angles(out: str) -> List[float]:
    data = json.loads(out)
    return [e["theta"] for k, v in data.items() if k != "class_results" for e in v["edges"]]


def _half_space_rules(out: str) -> List[int]:
    """How many vertex findings use R1 and R2, the two rules that the sampled
    half-space predicate of a vertex cone decides between."""
    data = json.loads(out)
    findings = [vc["finding"] for key, rep in data.items() if key != "class_results"
                for vc in rep["vertices"]]
    return [sum("R1" in f for f in findings), sum("R2" in f for f in findings)]


def near_threshold(angles: Sequence[float]) -> bool:
    return any(abs(a - t) <= ANGLE_TOL for a in angles for t in THRESHOLDS)


def check_moved(out: str, reference: str):
    """A moved domain must give the unmoved copy's result."""
    got, want = summarize_output(out), summarize_output(reference)
    if got.keys() != want.keys():
        raise Failure("targets %s differ from the unmoved copy's %s"
                      % (sorted(got), sorted(want)))
    for key in sorted(want):
        if not _same(got[key], want[key]):
            label = None
            if near_threshold(_edge_angles(out) + _edge_angles(reference)):
                label = "threshold-flip"
            elif _half_space_rules(out) != _half_space_rules(reference):
                label = "sampled-cone"
            raise Failure("%s differs from the unmoved copy: %r vs %r"
                          % (key, got[key], want[key]), label)


def _contains(iv: tuple, s: Fraction) -> bool:
    lo, hi, lo_closed, hi_closed = iv
    if s < lo or s > hi:
        return False
    if s == lo and not lo_closed:
        return False
    if s == hi and not hi_closed:
        return False
    return True


def check_agreement(point_out: str, scan_out: str, s_text: str):
    """A point check may certify s only where the scan admits it, and must
    certify every s of a certified scan interval."""
    point, scan = json.loads(point_out), json.loads(scan_out)
    s = Fraction(s_text)
    for target in ("w1", "w2", "exist"):
        if target not in point or target not in scan:
            if (target in point) != (target in scan):
                raise Failure("%s answered by only one of scan and point check" % target)
            continue
        iv = _interval(scan[target]["s_interval"])
        inside = _contains(iv, s)
        verdict = point[target]["verdict"]
        at_end = s in (iv[0], iv[1])
        if verdict == "holds" and not inside:
            label = "w2-floor" if target == "w2" and s <= Fraction(6, 5) else \
                "interval-end" if at_end else None
            raise Failure("%s holds at s=%s outside the scanned %r" % (target, s, iv), label)
        if inside and scan[target]["verdict"] == "holds" and verdict != "holds":
            raise Failure("%s is %s at s=%s inside the certified %r" % (target, verdict, s, iv),
                          "interval-end" if at_end else None)


# -- the numeric-domains meshes -------------------------------------------------------------

def separable_mu(theta: float, pair: Sequence[int]) -> float:
    """Edge exponent of a separable pair by the parity rule: the second
    eigenvalue (smallest above 1) for even pairs opening below pi/m."""
    total = pair[0] + pair[1]
    m = 1 if total in (0, 6) else 2
    values = separable_values(theta, pair, 0.0, 2.0 * math.pi / theta + 3.0)
    if total % 2 == 0 and theta < math.pi / m - ANGLE_TOL:
        return min(v for v in values if v > 1.0 + EIG_TOL)
    return min(v for v in values if v > 1e-3)


def check_numeric(out: str, pair: Tuple[int, int], angle: float):
    """Every edge of a mesh with one condition on all faces opens at ``angle``
    and carries the separable exponent of ``pair``."""
    data = json.loads(out)
    for e in data["w2"]["edges"]:
        if abs(e["theta"] - angle) > ANGLE_TOL:
            raise Failure("edge %d opens at %r, not %r" % (e["edge"], e["theta"], angle))
        want = separable_mu(angle, pair)
        if abs(e["mu"] - want) > EIG_TOL:
            raise Failure("edge %d exponent %r, separable spectrum gives %r"
                          % (e["edge"], e["mu"], want))
