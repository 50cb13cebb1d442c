"""Spectrum of the dihedron operator pencil and the edge exponent rules.

Separating r^lambda out of the Stokes system on an infinite wedge of opening
theta turns it into a quadratic eigenvalue problem for an ODE system on the
arc (-theta/2, theta/2): three momentum equations in the Cartesian velocity
components, the divergence row, and three boundary rows per side.  These
read the README condition table per vector v of the face frame (n, e_r, e_z):
the condition index d names the frame vectors along which the velocity
vanishes, v.u = 0 (``_VELOCITY_TRACES``), and along every other one the
stress does, v.(2 nu eps(u) n - p n) = nu (n.d_v u + v.d_n u) - (v.n) p = 0.
Every derivative, in these rows and in the interior ones, is the one scaled
directional derivative (w.e_phi) d/dphi + lambda (w.e_r) along a vector w,
with lambda - 1 in place of lambda for the pressure.

Two routes to the eigenvalues are provided and cross-checked:

* closed forms: the transcendental equation
  sin(l*t)*(l^2 sin^2 t - sin^2(l*t)) = 0 for the velocity-on-both-sides and
  stress-on-both-sides pairs, with the real root selection rules (pi/theta up
  to pi, the smallest root of sin(m*t) + m*sin(t) = 0 above), and the
  separated spectrum of the pairs (1,1), (2,2) and (1,2);
* a Chebyshev collocation of the ODE system, linearized at the size of its
  finite spectrum (an unknown B_r z + lam C_r z for each row r with a lam^2
  term, so that no lam term touches the pressure; lam^2 itself for a block
  with no lam term), solved by shift-invert from a shift near the window
  midpoint, and filtered by refinement stability plus a normalized pencil
  residual.

The pencil splits exactly into the plane Stokes problem for (u_x, u_y, p)
and the antiplane Laplace problem for u_z (Dauge, SIAM J. Math. Anal. 20,
1989): the z-momentum rows and each side's e_z boundary row act on u_z
only, and no other row acts on u_z.  A block whose two faces carry the same
rows is symmetric under the mirror phi -> -phi, and its spectrum splits
again into mirror-even and mirror-odd modes (the sin(l*t) +- l*sin(t)
factors of the transcendental equation; Kozlov, Maz'ya & Rossmann, AMS
2001): the plane block when d+ = d-, the antiplane block when both faces fix
u_z or neither does.  The solver works on the diagonal blocks and halves
separately.

Everything here needs numpy alone: the collocation solver's LAPACK calls
are numpy's ``eigvals``, ``svd`` and ``solve``, behind the module attributes
``eig``, ``svdvals`` and ``solve``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import MU_THRESHOLD_TWO_THIRDS, special_opening

__all__ = [
    "DihedronPencil",
    "Spectrum",
    "MuValue",
    "WindowError",
    "BracketingError",
    "dd_nn_residual",
    "mu_real_root",
    "separable",
    "assemble_pencil",
    "solve_spectrum",
    "mu_of_edge_point",
    "class_bound",
    "edge_exponent",
    "MU_THRESHOLD_TWO_THIRDS",
]


# the collocation solver's LAPACK routines, all of them numpy's: module
# attributes, so that a caller can wrap or replace them

def eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square matrix ``a``."""
    return np.linalg.eigvals(a)


def svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values of ``a``, largest first."""
    return np.linalg.svd(a, compute_uv=False)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by LU; an exactly zero pivot raises ``np.linalg.LinAlgError``."""
    return np.linalg.solve(a, b)


_ROOT_XTOL = 1e-14  # bracketing tolerance of the real-root closed form
_ROOT_RTOL = 4 * sys.float_info.epsilon  # and its relative part
_ROOT_ITER = 100
_STAB_TOL = 1e-6    # a kept eigenvalue reproduces under n -> 2n within this
_RES_TOL = 1e-8     # and its normalized pencil residual stays below this
_RE_MIN = 1e-3      # real parts up to this belong to the zero eigenvalue
_CERT_TOL = 1e-6    # eigenvalues this close to the line Re = 1 sit on it


class WindowError(RuntimeError):
    """The searched strip is too small to certify the requested eigenvalue."""


class BracketingError(RuntimeError):
    """No sign change found when bracketing a real root, or no convergence
    inside it (should not happen)."""


@dataclass(frozen=True)
class DihedronPencil:
    """Wedge of opening ``theta`` with condition indices on the two faces."""

    theta: float
    d_plus: int
    d_minus: int
    nu: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < 2.0 * math.pi:
            raise ValueError("theta must lie in (0, 2*pi), got %r" % (self.theta,))
        for d in (self.d_plus, self.d_minus):
            if d not in (0, 1, 2, 3):
                raise ValueError("condition index must be 0..3, got %r" % (d,))
        if not self.nu > 0:
            raise ValueError("nu must be positive")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues found in a strip, after refinement filtering.

    ``multiplicities`` counts clustered copies from the linearized problem
    (e.g. the ubiquitous eigenvalue 1 of the equal-condition pairs genuinely
    carries a two-dimensional kernel).  ``unresolved`` lists window candidates
    that passed the residual test at the finer discretization but failed to
    reproduce under refinement; they are reported rather than silently
    dropped.  Both are clustered by the same rule (:func:`_clusters`), and
    each cluster is listed once, at its lowest value; copies of one value may
    come from different blocks.  A candidate within 10 ``_STAB_TOL`` of a
    kept value is a copy of that eigenvalue that the coarse solve did not
    reproduce: it is left out of ``unresolved``, and ``multiplicities`` count
    the reproduced copies only.  Every listed value passed that residual
    test, which decides "at most ``_RES_TOL``" without computing the residual
    where a bound settles it; the residuals themselves are ``residuals``.

    :func:`solve_spectrum` keeps the collocation at n of its coarse solve,
    left out of equality and repr, so that ``residuals`` reads from it.
    """

    eigenvalues: Tuple[complex, ...]
    multiplicities: Tuple[int, ...]
    window: Tuple[float, float]
    n: int
    unresolved: Tuple[complex, ...] = ()
    _coarse: Optional[_Collocation] = field(default=None, repr=False, compare=False)

    def real_parts(self) -> np.ndarray:
        return np.array([ev.real for ev in self.eigenvalues])

    @cached_property
    def residuals(self) -> Tuple[float, ...]:
        """:func:`pencil_residual` at n of each of ``eigenvalues``, once per
        conjugate pair, computed on first read from the solve's collocation."""
        return tuple(_per_pair(_residual, self._coarse, self.eigenvalues))


@dataclass(frozen=True)
class MuValue:
    """Edge exponent with its provenance and the eigenvalue role that set it."""

    value: float
    provenance: str  # 'closed-form' | 'numeric' | 'class-bound'
    role: str        # 'lambda1' | 'lambda2'
    is_lower_bound: bool = False
    note: str = ""
    bound: Optional[Fraction] = None  # exact rational value, or the rational behind a class bound

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("edge exponent must be positive")


# -- closed forms ---------------------------------------------------------------

def dd_nn_residual(lam: complex, theta: float) -> complex:
    """Transcendental characteristic function for the (0,0) and (3,3) pairs.

    Zeros are exactly the pencil spectrum (lambda != 0 for the velocity pair).
    """
    lam = complex(lam)
    return np.sin(lam * theta) * (lam ** 2 * math.sin(theta) ** 2
                                  - np.sin(lam * theta) ** 2)


def _brentq(f, xa: float, xb: float) -> float:
    """A root of ``f`` in [xa, xb], where ``f`` changes sign, by Brent's method
    (Brent, *Algorithms for Minimization without Derivatives*, 1973).

    A line-for-line port of scipy's ``brentq.c`` with xtol ``_ROOT_XTOL``,
    rtol 4 eps and at most 100 iterations, so it returns the same float as
    ``scipy.optimize.brentq`` at those settings.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise BracketingError("f(%r) and f(%r) have the same sign" % (xa, xb))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise BracketingError("no convergence in %d iterations in [%r, %r]" % (_ROOT_ITER, xa, xb))


def mu_real_root(theta: float) -> float:
    """Edge exponent for the (0,0)/(3,3) pairs: pi/theta up to pi, otherwise
    the smallest positive root of sin(m*theta) + m*sin(theta) = 0.
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("theta must lie in (0, 2*pi)")
    if theta <= math.pi:
        return math.pi / theta

    def f(m):
        return math.sin(m * theta) + m * math.sin(theta)

    step = min(0.01, math.pi / (4.0 * theta))
    a = step
    fa = f(a)
    while a < 1.0:
        b = min(a + step, 1.0)
        fb = f(b)
        if fa * fb <= 0.0:
            return _brentq(f, a, b)
        a, fa = b, fb
    raise BracketingError("no root of the edge equation in (0, 1) for theta=%r" % theta)


# -- collocation discretization ---------------------------------------------------

def _cheb(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and Lobatto nodes on [-1, 1]."""
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** k
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


# The vectors of a face's frame (n, e_r, e_z) that carry a velocity condition,
# by condition index d: the README condition table read per frame vector.
# Along these v.u = 0; along the others v.(2 nu eps(u) n - p n) = 0.
_VELOCITY_TRACES = {0: "nrz", 1: "rz", 2: "n", 3: ""}


_Coefficients = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _Collocation(NamedTuple):
    """The row-scaled coefficients (A, B, C) of T(lam) = A + lam B + lam^2 C
    (``full``), the (rows, columns) of its plane block in (u_x, u_y, p) and of
    its antiplane block in u_z (``split``), and the coefficients of the
    diagonal blocks the solver works on (``blocks``).  No entry outside the
    plane and antiplane blocks is nonzero.  A block whose two faces carry the
    same rows is mirror symmetric and stands in ``blocks`` as its mirror-even
    and mirror-odd halves (:func:`_mirror_halves`); the others stand as they
    are.  The singular values and eigenvalues of ``blocks`` are those of T."""

    full: _Coefficients
    split: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    blocks: Tuple[_Coefficients, ...]


def _mirror_basis(index: np.ndarray, partner: np.ndarray, sign: np.ndarray):
    """The orthonormal basis of the vectors a signed mirror keeps, on the
    ascending indices ``index`` that it maps among themselves, index[k] ->
    sign[k] partner[k]: as (i, j, a, b) for the vectors a e_i + b e_j, that
    is (e_i + sign e_j)/sqrt(2) for each pair i < j, and e_i for each fixed
    point with sign +1."""
    keep = (index < partner) | ((index == partner) & (sign > 0))
    i, j = index[keep], partner[keep]
    paired = j != i
    a = np.where(paired, math.sqrt(0.5), 1.0)
    return i, j, a, np.where(paired, sign[keep] * a, 0.0)


def _mirror_halves(coefficients: _Coefficients, rows, cols, row_mirror, col_mirror
                   ) -> Tuple[_Coefficients, ...]:
    """The mirror-even and mirror-odd halves Q_r^T X Q_c of the block on
    ``rows`` and ``cols`` of each X in ``coefficients``, which the signed
    mirrors ``row_mirror`` and ``col_mirror``, each (partner, sign) of every
    row or column, map to itself, with Q the bases of :func:`_mirror_basis`.
    The halves are gathered from X itself: the block is never copied whole.

    The mirror holds to rounding, not to the bit (cos(pi k/n) is not
    -cos(pi (n-k)/n) in floating point), so the coupling of the halves is
    rounding noise that is dropped: being orthonormal, the combinations keep
    the singular values and eigenvalues of the block to rounding.
    """
    halves = []
    for parity in (1.0, -1.0):
        ri, rj, ra, rb = _mirror_basis(rows, row_mirror[0][rows], parity * row_mirror[1][rows])
        ci, cj, ca, cb = _mirror_basis(cols, col_mirror[0][cols], parity * col_mirror[1][cols])
        half = []
        for X in coefficients:
            # whole rows of X first: a row gather is cheaper than a 2-D one
            Y = ra[:, None] * X[ri] + rb[:, None] * X[rj]
            half.append(Y[:, ci] * ca + Y[:, cj] * cb)
        halves.append(tuple(half))
    return tuple(halves)


def _blocks(p: DihedronPencil, n: int) -> _Collocation:
    """The collocated pencil, split as its rows are built (:class:`_Collocation`)."""
    if n < 8:
        raise ValueError("collocation size must be at least 8")
    D1, x = _cheb(n)
    half = p.theta / 2.0
    phi = half * x                     # phi[0] = +theta/2, phi[n] = -theta/2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        D = D1 / half
        D2 = D @ D
    if not np.isfinite(D2).all():
        raise ValueError("opening %r is too small for collocation size %d: "
                         "the collocated pencil overflows" % (p.theta, n))
    m = n + 1
    size = 4 * m
    A = np.zeros((size, size))
    B = np.zeros((size, size))
    C = np.zeros((size, size))
    U = (slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m))
    P = slice(3 * m, 4 * m)
    cos, sin = np.cos(phi), np.sin(phi)
    nu = p.nu
    axes = np.eye(3)

    def derivative(r, k, w, cols, coef=1.0, degree=0):
        # add to row r coef times the derivative along w, at node k, of the
        # unknown on cols; that unknown carries r^(lam + degree), so the
        # derivative, scaled by r^(1 - lam - degree), is
        # (w.e_phi) d/dphi + (lam + degree)(w.e_r); r and k may be matching
        # arrays of rows and nodes, which take the same float operations
        w_r = w[0] * cos[k] + w[1] * sin[k]
        w_phi = w[1] * cos[k] - w[0] * sin[k]
        A[r, cols] += (coef * w_phi)[..., None] * D[k]
        A[r, cols.start + k] += coef * degree * w_r
        B[r, cols.start + k] += coef * w_r

    interior = np.arange(1, n)
    # momentum -nu (d^2/dphi^2 + lam^2) u_i + d/dx_i p at interior nodes
    for i in range(3):
        rows = i * (n - 1) + interior - 1
        A[rows, U[i]] -= nu * D2[1:n]
        C[rows, U[i].start + interior] -= nu
        derivative(rows, interior, axes[i], P, degree=-1)
    antiplane = list(range(2 * (n - 1), 3 * (n - 1)))  # the z-momentum rows, then e_z rows
    # divergence at every node
    nodes = np.arange(m)
    for j in range(3):
        derivative(3 * (n - 1) + nodes, nodes, axes[j], U[j])
    r = 3 * (n - 1) + m
    # boundary rows; endpoint momentum slots are replaced by the traces
    for e, d, sgn in ((0, p.d_plus, 1.0), (n, p.d_minus, -1.0)):
        normal = np.array([-sgn * sin[e], sgn * cos[e], 0.0])
        frame = {"n": normal, "r": np.array([cos[e], sin[e], 0.0]), "z": axes[2]}
        for key, v in frame.items():
            if key == "z":
                antiplane.append(r)
            if key in _VELOCITY_TRACES[d]:
                for j in range(3):
                    A[r, U[j].start + e] = v[j]
            else:  # v.(2 nu eps(u) n - p n) = nu (n.d_v u + v.d_n u) - (v.n) p
                for j in range(3):
                    derivative(r, e, v, U[j], nu * normal[j])
                    derivative(r, e, normal, U[j], nu * v[j])
                A[r, P.start + e] -= v @ normal
            r += 1
    assert r == size
    scale = np.abs(A).max(axis=1) + np.abs(B).max(axis=1) + np.abs(C).max(axis=1)
    scale[scale == 0] = 1.0
    A /= scale[:, None]
    B /= scale[:, None]
    C /= scale[:, None]
    z_cols = np.arange(U[2].start, U[2].stop)
    split = ((np.delete(np.arange(size), antiplane), np.delete(np.arange(size), z_cols)),
             (np.array(antiplane), z_cols))
    # the mirror phi -> -phi as (partner, sign) of every row and column: node
    # k goes to node n - k, u_y and the y-momentum rows change sign, and each
    # plus-side boundary row goes to the minus-side row of its frame vector
    node = n - nodes
    row_mirror = (np.concatenate([i * (n - 1) + node[1:n] - 1 for i in range(3)]
                                 + [3 * (n - 1) + node, 3 * (n - 1) + m + (np.arange(6) + 3) % 6]),
                  np.concatenate([np.repeat([1.0, -1.0, 1.0], n - 1), np.ones(m + 6)]))
    col_mirror = (np.concatenate([j * m + node for j in range(4)]),
                  np.repeat([1.0, -1.0, 1.0, 1.0], m))

    blocks = []
    # a block is mirror symmetric when both faces put the same frame vectors
    # of that block into velocity traces: the plane one for d+ = d-, the
    # antiplane one when both faces or neither fix u_z
    for (rows, cols), keys in zip(split, ({"n", "r"}, {"z"})):
        if keys & set(_VELOCITY_TRACES[p.d_plus]) == keys & set(_VELOCITY_TRACES[p.d_minus]):
            blocks.extend(_mirror_halves((A, B, C), rows, cols, row_mirror, col_mirror))
        else:
            blocks.append(tuple(X[np.ix_(rows, cols)] for X in (A, B, C)))
    return _Collocation((A, B, C), split, tuple(blocks))


def _evaluate(coefficients: _Coefficients, lam: complex) -> np.ndarray:
    A, B, C = coefficients
    return A + lam * B + lam ** 2 * C


def assemble_pencil(p: DihedronPencil, lam: complex, n: int) -> np.ndarray:
    """Dense discretization of the pencil at a fixed spectral parameter."""
    return _evaluate(_blocks(p, n).full, lam)


def _upper(lam: complex):
    """The member of lam's conjugate pair with Im >= 0, a float when real:
    T(conj lam) = conj T(lam) has the same singular values, and a real lam is
    scored in real arithmetic."""
    lam = complex(lam)
    return lam.real if lam.imag == 0 else complex(lam.real, abs(lam.imag))


def _residual(pencil: _Collocation, lam: complex) -> float:
    """Normalized smallest singular value of T(lam): the singular values of
    T(lam) are those of its diagonal blocks (``_Collocation.blocks``), one
    SVD each, taken at the member of lam's conjugate pair with Im >= 0
    (:func:`_upper`)."""
    sv = [svdvals(_evaluate(block, _upper(lam))) for block in pencil.blocks]
    return float(min(s[-1] for s in sv) / max(s[0] for s in sv))


def _residual_bound(pencil: _Collocation, lam: complex) -> float:
    """An upper bound of :func:`_residual` at ``lam`` from one LU solve per
    block, at the member of lam's conjugate pair with Im >= 0.

    Any nonzero x bounds the smallest singular value of a block from above by
    ||T_b x|| / ||x||, and the largest |t_ij| of the blocks bounds their
    largest singular value from below, so the ratio of the two bounds the
    residual from above (Tisseur, Linear Algebra Appl. 309, 2000).  Solving
    T_b x = e with the ramp e_k = 1 + k/size gives an x near the null vector
    when lam is an eigenvalue of that block; an all-ones e is orthogonal to
    the odd null vectors of equal-condition wedges.
    """
    T = [_evaluate(block, _upper(lam)) for block in pencil.blocks]
    best = math.inf
    for t in T:
        try:
            x = np.linalg.solve(t, 1.0 + np.arange(len(t)) / len(t))
        except np.linalg.LinAlgError:  # an exactly zero pivot
            continue
        x /= np.abs(x).max()  # no norm below overflows; an x that did turns into nan
        best = min(best, float(np.linalg.norm(t @ x) / np.linalg.norm(x)))  # min skips nan
    return best / float(max(np.abs(t).max() for t in T))


def _residual_passes(pencil: _Collocation, lam: complex) -> bool:
    """Whether :func:`_residual` at ``lam`` is at most ``_RES_TOL``.

    A :func:`_residual_bound` at most ``_RES_TOL``/2 settles it without the
    SVDs, the slack covering the rounding of the bound and of the SVDs;
    otherwise the SVDs decide, so the answer is always theirs.
    """
    return _residual_bound(pencil, lam) <= 0.5 * _RES_TOL or _residual(pencil, lam) <= _RES_TOL


def _per_pair(score, pencil: _Collocation, lams: Sequence[complex]) -> list:
    """``score(pencil, lam)`` at each of ``lams``, once per conjugate pair."""
    done = {}
    for lam in lams:
        key = (lam.real, abs(lam.imag))
        if key not in done:
            done[key] = score(pencil, lam)
    return [done[lam.real, abs(lam.imag)] for lam in lams]


def pencil_residual(p: DihedronPencil, lam: complex, n: int) -> float:
    """Normalized smallest singular value of the discretized pencil.

    The singular values are those of its plane and antiplane blocks, or of
    their mirror halves, one SVD each.  A real ``lam`` is scored in real
    arithmetic, and ``lam`` and its conjugate share those SVDs.  Values below
    about 1e-15 are rounding noise: their digits may differ between versions.
    """
    return _residual(_blocks(p, n), lam)


_SHIFT_OFFSET = math.sqrt(2.0) / 100.0  # the shift sits this far above the window midpoint
_SHIFT_STEP = (math.sqrt(5.0) - 1.0) / 16.0  # a colliding shift moves by this share of the width
_SHIFT_MOVES = 3    # collisions tolerated before the solve gives up
_SHIFT_GAP = 1e-4   # an eigenvalue within this (relative to max(1, |shift|)) collides


def _shift(window: Tuple[float, float]) -> float:
    """The first shift of the shift-invert solve: the window midpoint, offset."""
    return 0.5 * (window[0] + window[1]) + _SHIFT_OFFSET


def _linearization(coefficients: _Coefficients) -> Tuple[np.ndarray, np.ndarray, int]:
    """A linearization L y = lam^degree M y of one diagonal block, with zero
    columns in M for the unknowns no lam term touches.

    Each row r with a lam^2 term gets an unknown v_r = B_r z + lam C_r z:
    the row reads A_r z + lam v_r = 0, and v_r - B_r z - lam C_r z = 0
    defines v_r; every other row keeps A_r z + lam B_r z = 0.  So
    L = [[A, 0], [-B_R, I]] and M = [[-B_O, -E], [C_R, 0]], with R the
    lam^2 rows, B_O the rows of B off R, and E putting v_r into row r.
    Eliminating v gives T(lam) back.  The pressure enters the lam terms on
    the momentum rows only, which now carry v instead: its columns of M are
    zero.  A block with no lam term (B = 0, the antiplane one: e_z has no
    e_r component) is linear in nu = lam^2, with L = A, M = -C, degree 2.
    """
    A, B, C = coefficients
    if not B.any():
        return A, -C, 2
    rows = np.flatnonzero(C.any(axis=1))
    size, k = A.shape[0], len(rows)
    L = np.zeros((size + k, size + k))
    M = np.zeros_like(L)
    L[:size, :size] = A
    L[size:, :size] = -B[rows]
    L[size:, size:] = np.eye(k)
    M[:size, :size] = -B
    M[rows, :size] = 0.0
    M[rows, size + np.arange(k)] = -1.0
    M[size:, :size] = C[rows]
    return L, M, 1


def _shift_invert(coefficients: _Coefficients, window: Tuple[float, float]) -> np.ndarray:
    """Finite eigenvalues of one diagonal block, by shift-invert on its
    :func:`_linearization`, at the size of its finite spectrum.

    The real matrix K = (L - s M)^-1 M, s = sigma^degree, has the
    eigenvalues 1 / (lam^degree - s); the infinite eigenvalues of the
    singular M become its zero eigenvalues, and a zero column of M a zero
    column of K.  So the nonzero eigenvalues of K are those of its rows and
    columns where M has a nonzero column, and only those are solved for.  In
    nu = lam^2 both roots +-sqrt(nu) are returned.  A shift that hits the
    spectrum (a zero pivot, or a computed eigenvalue within ``_SHIFT_GAP``
    of sigma) is moved by ``_SHIFT_STEP`` of the window width.  A shift so
    far out that s, L - s M or K is not finite raises :class:`WindowError`.
    """
    L, M, degree = _linearization(coefficients)
    keep = np.flatnonzero(M.any(axis=0))
    sigma = _shift(window)
    for _ in range(_SHIFT_MOVES + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.float64(sigma) ** degree  # a float past the range turns into inf, not an error
            shifted = L - s * M
        if not np.isfinite(shifted).all():
            raise WindowError("the shift %r overflows the shifted pencil: the strip is too far out"
                              % (sigma,))
        try:
            K = solve(shifted, M[:, keep])[keep]
        except np.linalg.LinAlgError:  # a zero pivot: sigma is an eigenvalue
            pass
        else:
            if not np.isfinite(K).all():
                raise WindowError("the shift %r overflows the inverted pencil: the strip is too "
                                  "far out" % (sigma,))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                nu = s + 1.0 / eig(K)
            nu = nu[np.isfinite(nu)]
            if degree == 1:
                lam = nu
            else:
                root = np.sqrt(nu.astype(complex))
                lam = np.concatenate([root, -root])
            if not np.any(np.abs(lam - sigma) <= _SHIFT_GAP * max(1.0, abs(sigma))):
                return lam
        sigma += _SHIFT_STEP * (window[1] - window[0])
    raise WindowError("every shift tried in the window lies on the spectrum")


def _raw_eigenvalues(pencil: _Collocation, window: Tuple[float, float]) -> np.ndarray:
    """Finite eigenvalues of the collocated pencil: those of the plane Stokes
    block and those of the antiplane Laplace block, into which the pencil
    splits exactly (Dauge 1989), or of their mirror halves where a block is
    mirror symmetric, each found by its own shift-invert solve
    (:func:`_shift_invert`) with its own shift moves.  At n = 64 the plane
    block is solved at size 4n = 256, or 128 and 128 for its halves, and
    the antiplane block, in lam^2, at n - 1 = 63, or 32 and 31, where a
    companion unknown lam u per interior velocity node gives 321 (161 + 160)
    and 128 (65 + 63).
    """
    return np.concatenate([_shift_invert(block, window) for block in pencil.blocks])


def solve_spectrum(p: DihedronPencil, window: Tuple[float, float] = (0.0, 2.0),
                   n: int = 32) -> Spectrum:
    """Eigenvalues of the pencil in a strip re_lo <= Re <= re_hi.

    The pencil splits into the plane Stokes block and the antiplane Laplace
    block (Dauge 1989), and a mirror-symmetric block into its even and odd
    halves (:class:`_Collocation`).  Each is linearized at the size of its
    finite spectrum and solved by shift-invert from a shift near the window
    midpoint (:func:`_raw_eigenvalues`).  Reported
    eigenvalues must reproduce under n -> 2n within ``_STAB_TOL`` and have
    normalized residual at 2n at most ``_RES_TOL``: the smallest singular
    value of the blocks over their largest.  That test is settled by an
    upper bound from one LU solve per block, with the SVDs of
    :func:`_residual` as the fallback when the bound does not settle it
    (:func:`_residual_passes`), so the decisions are those of the SVDs.  A
    real candidate is tested in real arithmetic, and a conjugate pair is
    tested once.
    """
    re_lo, re_hi = window
    if not re_lo < re_hi or not np.isfinite(re_lo) or not np.isfinite(re_hi):
        raise ValueError("window must be a bounded strip")
    coarse_pencil = _blocks(p, n)
    coarse = _raw_eigenvalues(coarse_pencil, window)
    fine_pencil = _blocks(p, 2 * n)
    fine = _raw_eigenvalues(fine_pencil, window)
    sel = fine[(fine.real >= re_lo - 1e-12) & (fine.real <= re_hi + 1e-12)]
    kept: List[complex] = []
    unresolved: List[complex] = []
    for lam, passes in zip(sel, _per_pair(_residual_passes, fine_pencil, sel)):
        if not passes:
            continue
        dist = np.abs(coarse - lam).min() if len(coarse) else np.inf
        (kept if dist <= _STAB_TOL else unresolved).append(complex(lam))
    values, counts = _clusters(kept)
    unresolved = [lam for lam in unresolved
                  if not any(abs(lam - k) <= 10 * _STAB_TOL for k in kept)]
    return Spectrum(values, counts, (re_lo, re_hi), n, _clusters(unresolved)[0], coarse_pencil)


def _clusters(values: Sequence[complex]) -> Tuple[Tuple[complex, ...], Tuple[int, ...]]:
    """Copies of the same eigenvalue taken together: in (Re, Im) order, each
    value within 10 ``_STAB_TOL`` of the lowest value of the cluster before it
    joins that cluster.  Returns each cluster's lowest value and its size."""
    lowest: List[complex] = []
    counts: List[int] = []
    for lam in sorted(values, key=lambda z: (z.real, z.imag)):
        if lowest and abs(lam - lowest[-1]) <= 10 * _STAB_TOL:
            counts[-1] += 1
        else:
            lowest.append(lam)
            counts.append(1)
    return tuple(lowest), tuple(counts)


# -- exponent selection --------------------------------------------------------

def _pair_parity(d_plus: int, d_minus: int) -> Tuple[bool, int]:
    total = d_plus + d_minus
    even = total % 2 == 0
    m = 1 if total in (0, 6) else 2
    return even, m


def _takes_second_eigenvalue(theta: float, d_plus: int, d_minus: int) -> bool:
    even, m = _pair_parity(d_plus, d_minus)
    return even and theta < math.pi / m


def mu_of_edge_point(theta: float, d_plus: int, d_minus: int, spectrum: Spectrum,
                     quantity: str = "mu") -> MuValue:
    """Select the edge ``quantity`` ('mu' or 'lambda1', as in
    :func:`class_bound`) from a computed spectrum.

    Needs the window to certify the first eigenvalue (smallest positive real
    part).  The exponent mu follows the parity rule, which on its
    second-eigenvalue branch also needs the smallest real part above one;
    eigenvalues on the line Re = 1 other than 1 itself make that selection
    ambiguous and raise :class:`WindowError`.
    """
    if spectrum.window[0] > 0.0:
        raise WindowError("window must start at or below 0 to certify the first eigenvalue")
    res = [ev.real for ev in spectrum.eigenvalues if ev.real > _RE_MIN]
    if not res:
        raise WindowError("no eigenvalue with positive real part in the window; widen it")
    lam1 = min(res)
    if quantity == "mu" and _takes_second_eigenvalue(theta, d_plus, d_minus):
        near_one = [ev for ev in spectrum.eigenvalues
                    if abs(ev.real - 1.0) <= _CERT_TOL and abs(ev - 1.0) > _CERT_TOL]
        if near_one:
            raise WindowError("eigenvalue with real part 1 other than 1 itself; "
                              "cannot certify the second-eigenvalue selection")
        above = [re for re in res if re > 1.0 + _CERT_TOL]
        if not above:
            raise WindowError("window contains no eigenvalue with real part above 1; widen it")
        # certified only when strictly inside the window
        lam2 = min(above)
        if lam2 >= spectrum.window[1] - 1e-9:
            raise WindowError("second eigenvalue sits at the window edge; widen it")
        return MuValue(lam2, "numeric", "lambda2")
    if lam1 >= spectrum.window[1] - 1e-9:
        raise WindowError("first eigenvalue sits at the window edge; widen it")
    return MuValue(lam1, "numeric", "lambda1")


def mu_numeric(theta: float, d_plus: int, d_minus: int, n: int = 32,
               quantity: str = "mu") -> MuValue:
    """Edge ``quantity`` via the collocation solver, widening the strip as needed."""
    hi = max(2.4, math.pi / theta + 0.8)
    for _ in range(4):
        spec = solve_spectrum(DihedronPencil(theta, d_plus, d_minus), (0.0, hi), n=n)
        try:
            return mu_of_edge_point(theta, d_plus, d_minus, spec, quantity)
        except WindowError:
            hi *= 1.6
    raise WindowError("could not certify the edge exponent up to Re = %.2f" % hi)


def separable(quantity: str, d_plus: int, d_minus: int, theta: float) -> MuValue:
    """Edge ``quantity`` of the separable pairs (1,1), (2,2) and (1,2).

    Their spectrum is {j*pi/theta} (j >= 1) u {|1 +- j*pi/theta|} (j >= 0),
    with j over the half-integers for (1,2), where 1 is an eigenvalue too.
    The selection is that of :func:`mu_of_edge_point` with the solver's cuts,
    the zero cut ``_RE_MIN`` and 1 + ``_CERT_TOL`` for the second eigenvalue,
    so both routes pick the same eigenvalue wherever the solver resolves the
    spectrum (just below pi/2 it merges pi/theta - 1 into 1).  On the pi/24
    grid pi/theta = 24/k, and the exact rational value is also in ``bound``.
    """
    exact = special_opening(theta)[1]
    step = 1 / exact if exact is not None else math.pi / theta
    half = Fraction(1, 2) if d_plus != d_minus else 0
    # theta < 2*pi gives step > 1/2: six terms reach every value selected
    values = {Fraction(1)}
    for j in range(6):
        x = (j + half) * step
        values.update((x, abs(1 - x), 1 + x))
    second = quantity == "mu" and _takes_second_eigenvalue(theta, d_plus, d_minus)
    mu = min(v for v in values if v > (1 + _CERT_TOL if second else _RE_MIN))
    return MuValue(float(mu), "closed-form", "lambda2" if second else "lambda1",
                   bound=mu if exact is not None else None)


# The guaranteed class bounds, largest first within each pair: the first row
# whose pair and opening condition match gives the bound.  The first column
# names the quantity bounded, the edge exponent mu or the real part of the
# first eigenvalue lambda1; a row may bound both.  Mesh openings come snapped to
# the thresholds (geometry), so every comparison is exact.
_CLASS_BOUNDS = (
    (("mu",), ((0, 0), (3, 3)), lambda t: t < 0.75 * math.pi, Fraction(4, 3),
     "opening below 3*pi/4"),
    (("mu",), ((0, 0), (3, 3)), lambda t: t < math.pi, Fraction(1), "opening below pi"),
    (("mu",), ((0, 0), (3, 3)), lambda t: t < MU_THRESHOLD_TWO_THIRDS, Fraction(2, 3),
     "opening below the 2/3-threshold angle"),
    (("mu",), ((0, 0), (3, 3)), lambda t: True, Fraction(1, 2), "equal conditions on both faces"),
    (("mu",), ((0, 2),), lambda t: t < 0.375 * math.pi, Fraction(4, 3),
     "slip edge, opening below 3*pi/8"),
    (("mu",), ((0, 2),), lambda t: t < 0.5 * math.pi, Fraction(1), "slip edge, opening below pi/2"),
    (("mu",), ((0, 2),), lambda t: t < 0.75 * math.pi, Fraction(2, 3),
     "slip edge, opening below 3*pi/4"),
    (("mu",), ((0, 1),), lambda t: t < 0.5 * MU_THRESHOLD_TWO_THIRDS, Fraction(2, 3),
     "tangential-velocity edge below half the 2/3-threshold"),
    (("mu",), ((0, 1), (0, 2)), lambda t: t < 1.5 * math.pi, Fraction(1, 3),
     "condition change, opening below 3*pi/2"),
    (("mu",), ((0, 1), (0, 2)), lambda t: True, Fraction(1, 4), "condition changes across the edge"),
    (("lambda1",), ((0, 1), (0, 2)), lambda t: t <= 1.5 * math.pi, Fraction(1, 3),
     "changed-condition edge with opening at most 3*pi/2"),
    (("mu", "lambda1"), ((0, 3),), lambda t: True, Fraction(1, 4),
     "velocity against stress across the edge"),
)


def class_bound(quantity: str, d_plus: int, d_minus: int, theta: float) -> Optional[MuValue]:
    """The first bound on ``quantity`` ('mu' or 'lambda1') that the table
    gives for the pair at this opening, or None."""
    pair = tuple(sorted((d_plus, d_minus)))
    for quantities, pairs, applies, bound, note in _CLASS_BOUNDS:
        if quantity in quantities and pair in pairs and applies(theta):
            return MuValue(float(bound), "class-bound", "lambda1", True, note, bound)
    return None


def edge_exponent(quantity: str, d_plus: int, d_minus: int, theta: float,
                  n: int = 32) -> MuValue:
    """The edge's ``quantity``: the exponent mu ('mu') or the real part of the
    first pencil eigenvalue ('lambda1'), constant along a straight edge.

    The one place that picks the route: the closed form for the velocity pair
    and the separable pairs (both quantities) and the stress pair (mu), else
    the first class bound of the table, else the collocation solver.  Bounds
    are deliberately not refined numerically: point checks and the interval
    scan must agree, and the scan's exact rational endpoints come from the
    bounds and from the separable closed form on the pi/24 grid.  Every
    route depends on the unordered pair only, so swapping the faces keeps
    the value to the bit.
    """
    if quantity not in ("mu", "lambda1"):
        raise ValueError("quantity must be 'mu' or 'lambda1', got %r" % (quantity,))
    pair = tuple(sorted((d_plus, d_minus)))
    if pair == (0, 0) and quantity == "lambda1":
        # 1 up to the half-space opening, then the real-root branch
        return MuValue(1.0 if theta <= math.pi else mu_real_root(theta),
                       "closed-form", "lambda1")
    if pair in ((0, 0), (3, 3)) and quantity == "mu":
        second = _takes_second_eigenvalue(theta, d_plus, d_minus)
        return MuValue(mu_real_root(theta), "closed-form", "lambda2" if second else "lambda1")
    if pair in ((1, 1), (2, 2), (1, 2)):
        return separable(quantity, d_plus, d_minus, theta)
    bound = class_bound(quantity, d_plus, d_minus, theta)
    if bound is not None:
        return bound
    # the mirrored wedge has the same spectrum, but its collocation differs
    # in the last bits: the sorted pair makes the value independent of which
    # face is k_plus
    return mu_numeric(theta, *pair, n=n, quantity=quantity)
