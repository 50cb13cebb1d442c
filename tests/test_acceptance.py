"""Acceptance suite: every criterion at its stated tolerance, one line each."""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from polystokes import fixtures as fx
from polystokes.cli import FixtureRow, verification_rows, run_fixture_rows
from polystokes.edge_pencil import (DihedronPencil, MuValue, edge_exponent,
                                    mu_of_edge_point, mu_real_root, pencil_residual,
                                    solve_spectrum)
from polystokes.regularity import (Interval, ProblemSpec, RegularityQuery,
                                   check, decision_table, max_s)
from polystokes.spaces import SpaceDescriptor as SD, embeds

from conftest import ALL_FLAGS


def _report(num, ok, text):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_step_exponent():
    got = mu_real_root(1.5 * math.pi)
    _report(1, abs(got - 0.54448373) < 1e-8,
            "edge exponent at 3*pi/2 = %.10f vs 0.54448373 (tol 1e-8)" % got)


def test_criterion_2_platonic_pipeline():
    expected_mu = {"tetrahedron": 0.52033360, "cube": 0.54448373,
                   "octahedron": 0.58489758, "dodecahedron": 0.60487306,
                   "icosahedron": 0.68835272}
    expected_sin = {"tetrahedron": -(2 / 3) * math.sqrt(2), "cube": -1.0,
                    "octahedron": -(2 / 3) * math.sqrt(2),
                    "dodecahedron": -(2 / 5) * math.sqrt(5),
                    "icosahedron": -2 / 3}
    ok = True
    detail = []
    for name in expected_mu:
        poly = fx.platonic(name, complement=True)
        bc = fx.with_conditions(poly, 0)
        mu = min(edge_exponent("mu", *bc.pair(e), e.theta).value for e in poly.edges)
        sin_theta = math.sin(poly.edges[0].theta)
        ok_mu = abs(mu - expected_mu[name]) < 1e-7
        ok_sin = abs(sin_theta - expected_sin[name]) < 1e-12
        ok = ok and ok_mu and ok_sin
        detail.append("%s mu %.1e sin %.1e" % (name[:4], abs(mu - expected_mu[name]),
                                               abs(sin_theta - expected_sin[name])))
    _report(2, ok, "mesh->theta->mu pipeline on the five regular exteriors: "
            + "; ".join(detail))


def test_criterion_3_threshold_identity():
    # independent oracle: the identity sin(2a) + (2/3) sin(3a) = 0 at cos(a)=1/4
    s = math.sqrt(15.0) / 4.0
    oracle = 2 * s * 0.25 + (2.0 / 3.0) * s * (3 - 4 * s * s)
    got = mu_real_root(3 * math.acos(0.25))
    ok = abs(oracle) < 1e-15 and abs(got - 2.0 / 3.0) < 1e-10
    _report(3, ok, "exponent 2/3 at the threshold opening (err %.1e, oracle %.1e)"
            % (abs(got - 2 / 3), abs(oracle)))


def test_criterion_4_step_thresholds(step_dirichlet):
    w1 = float(max_s(step_dirichlet, "W1").s_interval.hi)
    w2 = float(max_s(step_dirichlet, "W2").s_interval.hi)
    mu = 0.54448373
    ok = abs(w1 - 2 / (1 - mu)) < 1e-4 and abs(w2 - 2 / (2 - mu)) < 1e-4 \
        and abs(w2 - 1.3740) < 1e-4
    _report(4, ok, "step-domain bounds: first-order %.5f ~ 2/(1-mu), "
            "second-order %.5f ~ 1.3740 (tol 1e-4)" % (w1, w2))


def _newton_to_root(lam, theta, iters=60):
    lam = complex(lam)
    for _ in range(iters):
        st = math.sin(theta)
        f = np.sin(lam * theta) * (lam ** 2 * st ** 2 - np.sin(lam * theta) ** 2)
        fp = (theta * np.cos(lam * theta) * (lam ** 2 * st ** 2 - np.sin(lam * theta) ** 2)
              + np.sin(lam * theta) * (2 * lam * st ** 2 - theta * np.sin(2 * lam * theta)))
        if abs(fp) < 1e-14:
            break
        step = f / fp
        lam = lam - step
        if abs(step) < 1e-13:
            break
    return lam


def _real_transcendental_roots(theta, lo=0.05, hi=2.0):
    """Independent enumeration of the real spectrum: multiples of pi/theta and
    bracketed sign changes of sin(l*theta) +- l*sin(theta)."""
    from scipy.optimize import brentq
    roots = []
    k = 1
    while k * math.pi / theta < hi:
        if k * math.pi / theta > lo:
            roots.append(k * math.pi / theta)
        k += 1
    for sign in (1.0, -1.0):
        f = lambda x: math.sin(x * theta) + sign * x * math.sin(theta)
        xs = np.linspace(lo, hi, 2000)
        vals = [f(x) for x in xs]
        for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
            if fa == 0.0:
                roots.append(float(a))
            elif fa * fb < 0:
                roots.append(brentq(f, a, b, xtol=1e-13))
    return sorted(set(round(r, 10) for r in roots))


def test_criterion_5_oracle_equivalence():
    thetas = [k * 0.2 * math.pi for k in range(2, 10)] + [0.3 * math.pi]
    assert len(set(round(t, 12) for t in thetas)) == 9
    worst = 0.0
    worst_sel = 0.0
    missing = []
    for theta in sorted(thetas):
        hi = max(2.0, math.pi / theta + 0.7)
        for pair in ((0, 0), (3, 3)):
            spec = solve_spectrum(DihedronPencil(theta, *pair), (0.0, hi), n=32)
            for ev in spec.eigenvalues:
                if not (1e-3 < ev.real < 2.0):
                    continue
                root = _newton_to_root(ev, theta)
                worst = max(worst, abs(ev - root))
            # completeness: every enumerated real root appears numerically
            reals = np.array([ev.real for ev in spec.eigenvalues
                              if abs(ev.imag) < 1e-8])
            for r in _real_transcendental_roots(theta, hi=min(2.0, hi)):
                if np.min(np.abs(reals - r)) > 1e-6:
                    missing.append((theta, pair, r))
            sel = mu_of_edge_point(theta, *pair, spec)
            worst_sel = max(worst_sel, abs(sel.value - mu_real_root(theta)))
    ok = worst < 1e-6 and worst_sel < 1e-6 and not missing
    _report(5, ok, "numeric spectra vs transcendental roots on the 9-angle grid: "
            "worst eigenvalue distance %.2e, worst selection error %.2e, "
            "%d roots missing (tol 1e-6)" % (worst, worst_sel, len(missing)))


def test_criterion_6_decision_table(cube_dirichlet, cube_neumann_top, step_slip_spec):
    table = {r.row_id: r for r in decision_table()}
    checks = {
        "velocity-any-W1 right endpoint 3 closed":
            table["velocity-any-W1"].interval == Interval(F(2), F(3), False, True),
        "velocity-convex-W2 endpoint 2":
            table["velocity-convex-W2"].interval.hi == F(2)
            and table["velocity-convex-W2"].interval.hi_closed,
        "convex narrow-angle W2 endpoint 3 open":
            table["velocity-convex-W2-narrow"].interval.hi == F(3)
            and not table["velocity-convex-W2-narrow"].interval.hi_closed,
        "velocity/stress W2 endpoint 8/7":
            table["velocity-stress-W2"].interval.hi == F(8, 7),
        "mixed no-stress W1 endpoint 8/3":
            table["no-stress-mixed-W1"].interval.hi == F(8, 3),
        "existence interval (3/2, 3)":
            table["existence-velocity"].interval == Interval(F(3, 2), F(3), False, False),
    }
    # convex first-order regularity holds for sampled s all the way to 100
    for s in (F(5, 2), F(10), F(50), F(100)):
        checks["convex W1 at s=%s" % s] = \
            check(cube_dirichlet, RegularityQuery("W1", s=s)).verdict == "holds"
    # the fixtures actually land in their class rows
    checks["cube D/N matches the 8/7 row"] = \
        check(cube_neumann_top, RegularityQuery("W2", s=F(8, 7))).verdict == "holds"
    checks["mixed prism W1 scan hits 8/3"] = \
        max_s(step_slip_spec, "W1").s_interval.hi == F(8, 3)
    bad = [k for k, v in checks.items() if not v]
    _report(6, not bad, "worked-example decision table reproduced exactly"
            + ("" if not bad else "; failing: " + ", ".join(bad)))


def test_criterion_7_property_suites(step_dirichlet, monkeypatch):
    failures = []
    # conjugate symmetry
    spec = solve_spectrum(DihedronPencil(0.7 * math.pi, 0, 0), (0.0, 4.0), n=32)
    evs = np.array(spec.eigenvalues)
    for ev in evs[np.abs(evs.imag) > 1e-9]:
        if np.min(np.abs(evs - np.conj(ev))) > 1e-9:
            failures.append("conjugate symmetry")
            break
    # viscosity invariance
    base = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0, nu=1.0), (0.0, 1.2), n=24)
    for nu in (2.0, 10.0):
        other = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0, nu=nu), (0.0, 1.2), n=24)
        a = np.sort_complex(np.array(base.eigenvalues))
        b = np.sort_complex(np.array(other.eigenvalues))
        if len(a) != len(b) or np.max(np.abs(a - b)) > 1e-9:
            failures.append("viscosity invariance at nu=%g" % nu)
    # the eigenvalue at 1 for even condition sums
    for pair in ((0, 0), (3, 3), (0, 2), (1, 1), (1, 3), (2, 2)):
        if pencil_residual(DihedronPencil(1.1 * math.pi, *pair), 1.0, 24) > 1e-8:
            failures.append("unit eigenvalue for pair %r" % (pair,))
    # strict monotonicity of the real-root exponent above pi
    grid = np.linspace(math.pi + 1e-6, 2 * math.pi - 1e-6, 100)
    vals = [mu_real_root(t) for t in grid]
    if not all(x > y for x, y in zip(vals, vals[1:])):
        failures.append("exponent monotonicity")
    # embedding transitivity on 200 lemma-consistent triples
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        l2 = int(rng.integers(0, 3)); l1 = l2 + int(rng.integers(0, 3))
        l0 = l1 + int(rng.integers(0, 3))
        s0 = F(int(rng.integers(13, 72)), 12)
        s1 = s0 + F(int(rng.integers(0, 13)), 12)
        s2 = s1 + F(int(rng.integers(0, 13)), 12)
        inv = lambda l, s: 3 / s - l
        b0 = F(int(rng.integers(-6, 7)), 6); d0 = F(int(rng.integers(-6, 7)), 6)
        b1 = b0 + (inv(l1, s1) - inv(l0, s0)) + F(int(rng.integers(0, 5)), 12)
        b2 = b1 + (inv(l2, s2) - inv(l1, s1)) + F(int(rng.integers(0, 5)), 12)
        d1 = d0 + (inv(l1, s1) - inv(l0, s0)) + F(int(rng.integers(0, 5)), 12)
        d2 = d1 + (inv(l2, s2) - inv(l1, s1)) + F(int(rng.integers(0, 5)), 12)
        A = SD.make("V", l0, (b0,), (d0,), s=s0)
        B = SD.make("V", l1, (b1,), (d1,), s=s1)
        C = SD.make("V", l2, (b2,), (d2,), s=s2)
        if embeds(A, B).verdict == "holds" and embeds(B, C).verdict == "holds":
            count += 1
            if embeds(A, C).verdict != "holds":
                failures.append("transitivity")
                break
    # verdict monotone under exponent increase, 50 randomized queries
    import polystokes.regularity as reg
    base_mu = reg.edge_exponent
    rng = np.random.default_rng(99)
    inflated_calls = []
    for _ in range(50):
        s = F(int(rng.integers(21, 44)), 10)
        q = RegularityQuery("W1", s=s)
        monkeypatch.setattr(reg, "edge_exponent", base_mu)
        # a fresh spec for each check: a spec keeps the exponents it computed
        before = check(dataclasses.replace(step_dirichlet), q).verdict
        bump = float(rng.uniform(0.01, 0.8))

        def inflated(quantity, d_plus, d_minus, theta, n=32, _b=bump):
            inflated_calls.append(theta)
            mv = base_mu(quantity, d_plus, d_minus, theta, n)
            return MuValue(mv.value + _b, mv.provenance, mv.role, False, mv.note)

        monkeypatch.setattr(reg, "edge_exponent", inflated)
        after = check(dataclasses.replace(step_dirichlet), q).verdict
        if before == "holds" and after != "holds":
            failures.append("verdict monotonicity at s=%s" % s)
            break
    if not inflated_calls:
        failures.append("verdict monotonicity: the inflated exponents were never read")
    monkeypatch.setattr(reg, "edge_exponent", base_mu)
    _report(7, not failures, "property suites"
            + ("" if not failures else ": " + "; ".join(failures)))


def test_criterion_8_verification_table():
    rows = verification_rows()
    results, ok = run_fixture_rows(rows, n=32)
    failing = [r["name"] for r in results if not r["pass"]]
    perturbed = list(rows)
    perturbed[0] = FixtureRow(rows[0].name, rows[0].compute,
                              float(rows[0].expected) + 5e-7, 1e-8)
    _, ok_perturbed = run_fixture_rows(perturbed, n=8)
    detected = not ok_perturbed
    _report(8, ok and detected,
            "verification table: %d/%d rows pass%s; perturbed fixture %s"
            % (len(results) - len(failing), len(results),
               "" if not failing else " (failing: %s)" % ", ".join(failing),
               "detected" if detected else "NOT detected"))


@pytest.fixture(scope="module")
def step_slip_spec(step):
    reentrant = [e for e in step.edges if e.theta > math.pi][0]
    slip_face = reentrant.adjacent_faces[0]
    return ProblemSpec(step, fx.with_conditions(step, 0, {slip_face: 2}), ALL_FLAGS)
