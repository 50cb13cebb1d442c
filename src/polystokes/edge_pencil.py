"""Spectrum of the dihedron operator pencil and the edge exponent rules.

Separating r^lambda out of the Stokes system on an infinite wedge of opening
theta turns it into a quadratic eigenvalue problem for an ODE system on the
arc (-theta/2, theta/2): three momentum equations in the Cartesian velocity
components, the divergence row, and three boundary rows per side realizing
the velocity/stress trace operators of the condition index d.

Two routes to the eigenvalues are provided and cross-checked:

* closed forms: the transcendental equation
  sin(l*t)*(l^2 sin^2 t - sin^2(l*t)) = 0 for the velocity-on-both-sides and
  stress-on-both-sides pairs, with the real root selection rules (pi/theta up
  to pi, the smallest root of sin(m*t) + m*sin(t) = 0 above), and the
  separated spectrum of the pairs (1,1), (2,2) and (1,2);
* a Chebyshev collocation of the ODE system, linearized compactly (a
  companion unknown only for the interior velocity nodes, where the lam^2
  term acts), solved by shift-invert from a shift near the window midpoint,
  and filtered by refinement stability plus a normalized pencil residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, eig, lu_factor, lu_solve, svdvals
from scipy.optimize import brentq

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


_ROOT_XTOL = 1e-14  # bracketing tolerance of the real-root closed form
_STAB_TOL = 1e-6    # a kept eigenvalue reproduces under n -> 2n within this
_RES_TOL = 1e-8     # and its normalized pencil residual stays below this
_RE_MIN = 1e-3      # real parts up to this belong to the zero eigenvalue
_CERT_TOL = 1e-6    # eigenvalues this close to the line Re = 1 sit on it


class WindowError(RuntimeError):
    """The searched strip is too small to certify the requested eigenvalue."""


class BracketingError(RuntimeError):
    """No sign change found when bracketing a real root (should not happen)."""


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
    dropped.
    """

    eigenvalues: Tuple[complex, ...]
    multiplicities: Tuple[int, ...]
    window: Tuple[float, float]
    n: int
    residual_bound: float
    unresolved: Tuple[complex, ...] = ()

    def real_parts(self) -> np.ndarray:
        return np.array([ev.real for ev in self.eigenvalues])


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
            return brentq(f, a, b, xtol=_ROOT_XTOL)
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


def _blocks(p: DihedronPencil, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-scaled coefficient matrices (A, B, C) of T(lam) = A + lam B + lam^2 C."""
    if n < 8:
        raise ValueError("collocation size must be at least 8")
    D1, x = _cheb(n)
    half = p.theta / 2.0
    phi = half * x                     # phi[0] = +theta/2, phi[n] = -theta/2
    D = D1 / half
    D2 = D @ D
    m = n + 1
    size = 4 * m
    A = np.zeros((size, size))
    B = np.zeros((size, size))
    C = np.zeros((size, size))
    U = (slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m))
    P = slice(3 * m, 4 * m)
    cos, sin = np.cos(phi), np.sin(phi)
    nu = p.nu
    r = 0
    # momentum rows at interior nodes; the pressure gradient in Cartesian
    # components is ((lam-1) cos - sin d/dphi, (lam-1) sin + cos d/dphi, 0) P
    for i in range(3):
        for k in range(1, n):
            A[r, U[i]] -= nu * D2[k, :]
            C[r, U[i].start + k] -= nu
            if i == 0:
                A[r, P] -= sin[k] * D[k, :]
                A[r, P.start + k] -= cos[k]
                B[r, P.start + k] += cos[k]
            elif i == 1:
                A[r, P] += cos[k] * D[k, :]
                A[r, P.start + k] -= sin[k]
                B[r, P.start + k] += sin[k]
            r += 1
    # divergence at every node
    for k in range(m):
        B[r, U[0].start + k] += cos[k]
        B[r, U[1].start + k] += sin[k]
        A[r, U[0]] -= sin[k] * D[k, :]
        A[r, U[1]] += cos[k] * D[k, :]
        r += 1
    # boundary rows; endpoint momentum slots are replaced by the traces
    for e, d, sgn in ((0, p.d_plus, 1.0), (n, p.d_minus, -1.0)):
        c0, s0 = math.cos(phi[e]), math.sin(phi[e])
        nvec = (-sgn * s0, sgn * c0, 0.0)
        t_rad = (c0, s0, 0.0)

        def form():
            return np.zeros(size), np.zeros(size)

        # scaled velocity gradient rows G[a][j]: d u_j / d x_a times r^{1-lam}
        G = [[None] * 3 for _ in range(3)]
        for j in range(3):
            a0, b0 = form()
            a0[U[j]] -= s0 * D[e, :]
            b0[U[j].start + e] += c0
            G[0][j] = (a0, b0)
            a1, b1 = form()
            a1[U[j]] += c0 * D[e, :]
            b1[U[j].start + e] += s0
            G[1][j] = (a1, b1)
            G[2][j] = form()

        def strain_normal(a):
            # component a of the scaled strain tensor applied to the normal
            Ar, Br = form()
            for b in range(3):
                if nvec[b]:
                    Aab = 0.5 * (G[a][b][0] + G[b][a][0])
                    Bab = 0.5 * (G[a][b][1] + G[b][a][1])
                    Ar += Aab * nvec[b]
                    Br += Bab * nvec[b]
            return Ar, Br

        rows: List[Tuple[np.ndarray, np.ndarray]] = []
        if d == 0:
            for j in range(3):
                a0, b0 = form()
                a0[U[j].start + e] = 1.0
                rows.append((a0, b0))
        elif d == 1:
            a0, b0 = form()
            a0[U[0].start + e] = c0
            a0[U[1].start + e] = s0
            rows.append((a0, b0))
            a1, b1 = form()
            a1[U[2].start + e] = 1.0
            rows.append((a1, b1))
            Ar, Br = form()
            for a in range(3):
                if nvec[a]:
                    ea, eb = strain_normal(a)
                    Ar += 2 * nu * nvec[a] * ea
                    Br += 2 * nu * nvec[a] * eb
            Ar[P.start + e] -= 1.0
            rows.append((Ar, Br))
        elif d == 2:
            a0, b0 = form()
            a0[U[0].start + e] = nvec[0]
            a0[U[1].start + e] = nvec[1]
            rows.append((a0, b0))
            for tvec in (t_rad, (0.0, 0.0, 1.0)):
                Ar, Br = form()
                for a in range(3):
                    if tvec[a]:
                        ea, eb = strain_normal(a)
                        Ar += tvec[a] * ea
                        Br += tvec[a] * eb
                rows.append((Ar, Br))
        else:  # d == 3
            for a in range(3):
                ea, eb = strain_normal(a)
                Ar = 2 * nu * ea
                Br = 2 * nu * eb
                Ar[P.start + e] -= nvec[a]
                rows.append((Ar, Br))
        for ar, br in rows:
            A[r] += ar
            B[r] += br
            r += 1
    assert r == size
    scale = np.abs(A).max(axis=1) + np.abs(B).max(axis=1) + np.abs(C).max(axis=1)
    scale[scale == 0] = 1.0
    A /= scale[:, None]
    B /= scale[:, None]
    C /= scale[:, None]
    return A, B, C


def _evaluate(blocks: Tuple[np.ndarray, np.ndarray, np.ndarray], lam: complex) -> np.ndarray:
    A, B, C = blocks
    return A + lam * B + lam ** 2 * C


def assemble_pencil(p: DihedronPencil, lam: complex, n: int) -> np.ndarray:
    """Dense discretization of the pencil at a fixed spectral parameter."""
    return _evaluate(_blocks(p, n), lam)


def _residual(blocks: Tuple[np.ndarray, np.ndarray, np.ndarray], lam: complex) -> float:
    sv = svdvals(_evaluate(blocks, lam))
    return float(sv[-1] / sv[0])


def pencil_residual(p: DihedronPencil, lam: complex, n: int) -> float:
    """Normalized smallest singular value of the discretized pencil."""
    return _residual(_blocks(p, n), lam)


def pencil_residuals(p: DihedronPencil, lams: Sequence[complex], n: int) -> List[float]:
    """:func:`pencil_residual` at each of ``lams``, from one assembly."""
    blocks = _blocks(p, n)
    return [_residual(blocks, lam) for lam in lams]


_SHIFT_OFFSET = math.sqrt(2.0) / 100.0  # the shift sits this far above the window midpoint
_SHIFT_STEP = (math.sqrt(5.0) - 1.0) / 16.0  # a colliding shift moves by this share of the width
_SHIFT_MOVES = 3    # collisions tolerated before the solve gives up
_SHIFT_GAP = 1e-4   # an eigenvalue within this (relative to max(1, |shift|)) collides


def _shift(window: Tuple[float, float]) -> float:
    """The first shift of the shift-invert solve: the window midpoint, offset."""
    return 0.5 * (window[0] + window[1]) + _SHIFT_OFFSET


def _raw_eigenvalues(blocks: Tuple[np.ndarray, np.ndarray, np.ndarray],
                     window: Tuple[float, float]) -> np.ndarray:
    """Finite eigenvalues of the compact linearization, by shift-invert.

    Only the interior velocity unknowns, the columns where C is nonzero, get
    a companion w = lam u: L z = lam M z with L = [[A, 0], [0, I]] and
    M = [[-B, -C[:, cols]], [S, 0]], S selecting those columns.  The real
    matrix (L - sigma M)^-1 M has the eigenvalues 1 / (lam - sigma), and the
    infinite eigenvalues of the singular M become its zero eigenvalues.  A
    shift that hits the spectrum (a zero pivot, or a computed eigenvalue
    within ``_SHIFT_GAP``) is moved by ``_SHIFT_STEP`` of the window width.
    """
    A, B, C = blocks
    cols = np.flatnonzero(C.any(axis=0))
    size, k = A.shape[0], len(cols)
    L = np.zeros((size + k, size + k))
    M = np.zeros_like(L)
    L[:size, :size] = A
    L[size:, size:] = np.eye(k)
    M[:size, :size] = -B
    M[:size, size:] = -C[:, cols]
    M[size + np.arange(k), cols] = 1.0
    sigma = _shift(window)
    for _ in range(_SHIFT_MOVES + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            try:
                lu = lu_factor(L - sigma * M)
            except LinAlgWarning:  # a zero pivot: sigma is an eigenvalue
                lu = None
        if lu is not None:
            mu = eig(lu_solve(lu, M), right=False)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                lam = sigma + 1.0 / mu
            lam = lam[np.isfinite(lam)]
            if not np.any(np.abs(lam - sigma) <= _SHIFT_GAP * max(1.0, abs(sigma))):
                return lam
        sigma += _SHIFT_STEP * (window[1] - window[0])
    raise WindowError("every shift tried in the window lies on the spectrum")


def solve_spectrum(p: DihedronPencil, window: Tuple[float, float] = (0.0, 2.0),
                   n: int = 32) -> Spectrum:
    """Eigenvalues of the pencil in a strip re_lo <= Re <= re_hi.

    The quadratic pencil is linearized compactly, with companion unknowns
    only where its lam^2 term acts, and solved by shift-invert from a shift
    near the window midpoint (:func:`_raw_eigenvalues`).  Reported
    eigenvalues must reproduce under n -> 2n within ``_STAB_TOL`` and have
    normalized residual at 2n below ``_RES_TOL``.
    """
    re_lo, re_hi = window
    if not re_lo < re_hi or not np.isfinite(re_lo) or not np.isfinite(re_hi):
        raise ValueError("window must be a bounded strip")
    coarse = _raw_eigenvalues(_blocks(p, n), window)
    fine_blocks = _blocks(p, 2 * n)
    fine = _raw_eigenvalues(fine_blocks, window)
    sel = fine[(fine.real >= re_lo - 1e-12) & (fine.real <= re_hi + 1e-12)]
    kept: List[complex] = []
    unresolved: List[complex] = []
    worst = 0.0
    for lam in sel:
        dist = np.abs(coarse - lam).min() if len(coarse) else np.inf
        res = _residual(fine_blocks, complex(lam))
        if dist <= _STAB_TOL and res <= _RES_TOL:
            kept.append(complex(lam))
            worst = max(worst, res)
        elif res <= _RES_TOL:
            unresolved.append(complex(lam))
    # cluster multiple copies of the same eigenvalue
    kept.sort(key=lambda z: (z.real, z.imag))
    values: List[complex] = []
    counts: List[int] = []
    for lam in kept:
        if values and abs(lam - values[-1]) <= 10 * _STAB_TOL:
            counts[-1] += 1
        else:
            values.append(lam)
            counts.append(1)
    return Spectrum(tuple(values), tuple(counts), (re_lo, re_hi), n, worst,
                    tuple(sorted(unresolved, key=lambda z: (z.real, z.imag))))


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
    bounds and from the separable closed form on the pi/24 grid.
    """
    if quantity not in ("mu", "lambda1"):
        raise ValueError("quantity must be 'mu' or 'lambda1', got %r" % (quantity,))
    pair = tuple(sorted((d_plus, d_minus)))
    if pair == (0, 0) and quantity == "lambda1":
        # 1 up to the half-space opening, then the real-root branch
        return MuValue(1.0 if theta <= math.pi else mu_real_root(theta),
                       "closed-form", "lambda1")
    if pair in ((0, 0), (3, 3)) and quantity == "mu":
        role = "lambda2" if theta < math.pi else "lambda1"
        return MuValue(mu_real_root(theta), "closed-form", role)
    if pair in ((1, 1), (2, 2), (1, 2)):
        return separable(quantity, d_plus, d_minus, theta)
    bound = class_bound(quantity, d_plus, d_minus, theta)
    if bound is not None:
        return bound
    return mu_numeric(theta, d_plus, d_minus, n=n, quantity=quantity)
