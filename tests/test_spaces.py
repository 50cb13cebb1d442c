from dataclasses import replace
from fractions import Fraction as F

import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polystokes.spaces import (Eps, SpaceDescriptor as SD, embeds, holder_embeds,
                               sigma_exponents)


def V(l, s, beta, delta, domain="domain"):
    return SD.make("V", l, beta, delta, s=s, domain=domain)


def W(l, s, beta, delta, domain="domain"):
    return SD.make("W", l, beta, delta, s=s, domain=domain)


def N(l, sigma, beta, delta, domain="domain"):
    return SD.make("N", l, beta, delta, sigma=sigma, domain=domain)


def C(l, sigma, beta, delta, domain="domain"):
    return SD.make("C", l, beta, delta, sigma=sigma, domain=domain)


def rules(judgment):
    return [name for name, _ in judgment.chain]


# -- symbolic epsilon ------------------------------------------------------------

def test_eps_resolution_rule():
    x = Eps(F(1, 2), 1)  # 1/2 + eps
    assert x <= F(3, 4)          # 1/2 + eps <= 3/4  because 1/2 < 3/4
    assert not x <= F(1, 2)      # 1/2 + eps <= 1/2 is false
    assert F(1, 2) <= x
    assert Eps(1, -1) < 1        # 1 - eps < 1


def test_eps_arithmetic():
    assert Eps(F(1), 1) - F(1, 2) == Eps(F(1, 2), 1)
    assert -Eps(F(1), 2) == Eps(F(-1), -2)


@pytest.mark.parametrize("x", [2, -3, F(7, 3), F(-1, 2), 2.5, -0.25, 10 ** 400])
def test_eps_hash_agrees_with_equality(x):
    # equal objects hash equal, so a plain number and its Eps find each other
    assert Eps(x) == x and hash(Eps(x)) == hash(x)
    assert {Eps(x): "eps"}.get(x) == "eps"
    assert {x: "plain"}.get(Eps(x)) == "plain"
    assert hash(Eps(F(x))) == hash(Eps(x))  # Fraction, int and float agree


def test_eps_hash_of_a_value_beyond_the_float_range():
    huge = F(10 ** 400)
    assert hash(Eps(huge)) == hash(huge)
    assert hash(Eps(huge, 1)) == hash((huge, 1))
    assert {Eps(huge, 1): 1}.get(Eps(huge, 1)) == 1 and Eps(huge, 1) != huge


_PLAIN = st.one_of(st.integers(-10 ** 400, 10 ** 400), st.fractions(max_denominator=50),
                   st.floats(allow_nan=False),
                   st.integers(-4, 4).map(lambda n: F(n, 2)))


@given(val=_PLAIN, k=st.integers(-2, 2), other=_PLAIN)
def test_eps_compares_plain_numbers_as_eps(val, k, other):
    # a plain operand compares as other + 0*eps, on either side
    x, y = Eps(val, k), Eps(other, 0)
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(x, other) == op(x, y) == op((val, k), (other, 0)), op
        assert op(other, x) == op(y, x), op


# -- descriptor validation ----------------------------------------------------------

def test_w_kind_requires_delta_window():
    with pytest.raises(ValueError):
        W(1, F(2), (0,), (F(-2),))


def test_c_kind_requires_nonnegative_delta():
    with pytest.raises(ValueError):
        SD.make("C", 1, (0,), (-1,), sigma=F(1, 2))


def test_holder_needs_sigma():
    with pytest.raises(ValueError):
        SD.make("N", 1, (0,), (0,))


# -- embeddings -----------------------------------------------------------------

def test_reflexive():
    a = V(1, F(2), (0,), (0, 0))
    assert embeds(a, a).verdict == "holds"


def test_cone_step_requires_weight_equality():
    a = V(2, F(2), (F(1),), (F(0),), domain="cone")
    good = V(1, F(2), (F(0),), (F(-1),), domain="cone")
    assert embeds(a, good).verdict == "holds"
    shifted = V(1, F(2), (F(1, 2),), (F(-1),), domain="cone")
    assert embeds(a, shifted).verdict == "unknown"


def test_product_estimate_chain_instance():
    s = F(2)
    a = V(2, s, (F(0),), (F(0), F(0)))
    b = V(0, F(3) * s / 2, (-2 + F(1, 2),), (-2 + F(1, 2), -2 + F(1, 2)))
    assert embeds(a, b).verdict == "holds"


def test_vw_coincidence_both_directions():
    w = W(1, F(2), (0,), (F(1),))
    v = V(1, F(2), (0,), (F(1),))
    assert embeds(w, v).verdict == "holds"
    assert embeds(v, w).verdict == "holds"
    # below the coincidence threshold nothing is certified
    w2 = W(1, F(2), (0,), (F(0),))
    v2 = V(1, F(2), (0,), (F(0),))
    assert embeds(w2, v2).verdict == "unknown"


def test_order_minus_one_v_keeps_its_w_window():
    # edge weight -1 lies in (-1 - 2/s, -2/s]: above V's coincidence threshold
    # l - 2/s, but no W space carries it
    a = SD.make("V", -1, (0,), (-1,), s=2)
    j = embeds(a, a)
    assert j.verdict == "holds" and rules(j) == ["refl"]
    j = embeds(V(0, 2, (0,), (0,)), a)
    assert j.verdict == "holds" and rules(j) == ["embed-V"]


def test_nonweighted_identifications():
    plain = SD.make("sobolev", 1, (), (), s=F(3, 2))
    v = V(1, F(3, 2), (0,), (0,))
    assert embeds(plain, v).verdict == "holds"
    w = W(1, F(5, 2), (0, 0), (0,))
    plain52 = SD.make("sobolev", 1, (), (), s=F(5, 2))
    assert embeds(plain52, w).verdict == "holds"
    plain4 = SD.make("sobolev", 1, (), (), s=F(4))
    w4 = W(1, F(4), (0,), (0,))
    assert embeds(plain4, w4).verdict == "unknown"  # identification stops at s=3


def test_holder_embedding_rule():
    a = V(2, F(6), (0,), (0,))
    b = N(0, F(1, 2), (F(-1),), (F(-1),))
    # l - 3/s = 3/2 > sigma = 1/2; beta - l + 3/s = -3/2 <= beta' - sigma = -3/2
    assert holder_embeds(a, b).verdict == "holds"
    too_smooth = N(1, F(3, 4), (F(-1),), (F(-1),))
    assert holder_embeds(a, too_smooth).verdict == "unknown"


def test_holder_chain_from_nonhomogeneous():
    s, sig = F(12), F(1, 4)
    beta, delta = F(1), F(1)
    src = W(1, s / 2, (beta - sig + 1 - F(6) / s,), (delta - sig + 1 - F(6) / s,))
    tgt = N(0, sig, (beta,), (delta,))
    j = holder_embeds(src, tgt)
    assert j.verdict == "holds"
    assert len(j.chain) == 2  # coincidence then the Holder step


def test_dual_step():
    a = V(0, F(3, 2), (0,), (0,))
    b = SD.make("V", -1, (0,), (0,), s=F(3, 2))
    j = embeds(a, b)
    assert j.verdict == "holds" and rules(j) == ["embed-V"]


# each direct rule: a witness on the rule's boundary whose chain is that rule
# alone, and the target nudged by 1/12 past the boundary, which no chain proves
_E = F(1, 12)
_RULE_WITNESSES = {
    # on a cone embed-V needs the vertex weight to stay put, so refl stands alone
    "refl": (V(1, 2, (0,), (0,), "cone"), V(1, 2, (0,), (0,), "cone"),
             V(1, 2, (_E,), (0,), "cone")),
    # levels 1/2 -> -1/2: beta and delta may drop by 1
    "embed-V/domain": (V(2, 2, (0,), (0,)), V(1, 2, (-1,), (-1,)),
                       V(1, 2, (-1,), (-1 - _E,))),
    "embed-V/cone": (V(2, 2, (0,), (0,), "cone"), V(1, 2, (-1,), (-1,), "cone"),
                     V(1, 2, (-1 + _E,), (-1,), "cone")),
    # strict: beta + 3/s < beta' + 3/t and delta + 2/s < delta' + 2/t
    "relax-weights/domain": (V(1, 3, (0,), (0,)), V(1, 2, (F(-1, 2) + _E,), (F(-1, 3) + _E,)),
                             V(1, 2, (F(-1, 2),), (F(-1, 3) + _E,))),
    "relax-weights/W": (W(1, 3, (0,), (0,)), W(1, 2, (F(-1, 2) + _E,), (F(-1, 3) + _E,)),
                        W(1, 2, (F(-1, 2) + _E,), (F(-1, 3),))),
    "W-monotone": (W(2, 2, (0,), (1,)), W(1, 2, (-1,), (0,)),
                   W(1, 2, (-1 - _E,), (0,))),
    # levels 3/2 -> 1/2
    "V-to-N/domain": (V(2, 6, (0,), (0,)), N(0, F(1, 2), (-1,), (-1,)),
                      N(0, F(1, 2), (-1,), (-1 - _E,))),
    "V-to-N/cone": (V(2, 6, (0,), (0,), "cone"), N(0, F(1, 2), (-1,), (-1,), "cone"),
                    N(0, F(1, 2), (-1 + _E,), (-1,), "cone")),
    "holder-monotone/domain": (N(1, F(1, 2), (0,), (0,)), N(0, F(1, 2), (-1,), (-1,)),
                               N(0, F(1, 2), (-1,), (-1 - _E,))),
    "holder-monotone/cone": (N(1, F(1, 2), (0,), (0,), "cone"),
                             N(0, F(1, 2), (-1,), (-1,), "cone"),
                             N(0, F(1, 2), (-1 + _E,), (-1,), "cone")),
    # on a cone only N pins the vertex weight; C reads it as an inequality
    "holder-monotone/C-cone": (C(1, F(1, 2), (0,), (2,), "cone"),
                               C(0, F(1, 2), (-1 + _E,), (1,), "cone"),
                               C(0, F(1, 2), (-1 + _E,), (1 - _E,), "cone")),
    "N-in-C": (N(1, F(1, 2), (0,), (0,)), C(1, F(1, 2), (0,), (0,)),
               C(1, F(1, 2), (-_E,), (0,))),
}


@pytest.mark.parametrize("case", sorted(_RULE_WITNESSES))
def test_direct_rule_boundary(case):
    a, b, nudged = _RULE_WITNESSES[case]
    j = embeds(a, b)
    assert j.verdict == "holds" and rules(j) == [case.split("/")[0]]
    assert embeds(a, nudged).verdict == "unknown"


def test_weight_relaxation_needs_a_bounded_domain():
    a, b, _ = _RULE_WITNESSES["relax-weights/domain"]
    assert embeds(a, b).verdict == "holds"
    assert embeds(replace(a, domain="cone"), replace(b, domain="cone")).verdict == "unknown"


def test_embeds_rejects_mixed_domain_tags():
    a = V(1, F(2), (0,), (0,), domain="cone")
    b = V(1, F(2), (0,), (0,), domain="domain")
    with pytest.raises(ValueError):
        embeds(a, b)


# -- randomized properties ------------------------------------------------------------

def _random_posfrac(rng, lo=1, hi=6):
    return F(int(rng.integers(lo * 12 + 1, hi * 12)), 12)


def test_transitivity_on_consistent_triples():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        l2 = int(rng.integers(0, 3))
        l1 = l2 + int(rng.integers(0, 3))
        l0 = l1 + int(rng.integers(0, 3))
        s0 = _random_posfrac(rng)
        s1 = s0 + F(int(rng.integers(0, 13)), 12)
        s2 = s1 + F(int(rng.integers(0, 13)), 12)
        b0 = F(int(rng.integers(-6, 7)), 6)
        d0 = F(int(rng.integers(-6, 7)), 6)
        inv = lambda l, s: 3 / s - l
        b1 = b0 + (inv(l1, s1) - inv(l0, s0)) + F(int(rng.integers(0, 5)), 12)
        b2 = b1 + (inv(l2, s2) - inv(l1, s1)) + F(int(rng.integers(0, 5)), 12)
        d1 = d0 + (inv(l1, s1) - inv(l0, s0)) + F(int(rng.integers(0, 5)), 12)
        d2 = d1 + (inv(l2, s2) - inv(l1, s1)) + F(int(rng.integers(0, 5)), 12)
        A = V(l0, s0, (b0,), (d0,))
        B = V(l1, s1, (b1,), (d1,))
        C = V(l2, s2, (b2,), (d2,))
        if embeds(A, B).verdict == "holds" and embeds(B, C).verdict == "holds":
            assert embeds(A, C).verdict == "holds"
            count += 1


def test_weight_monotone_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        l = int(rng.integers(0, 3))
        t = _random_posfrac(rng, 1, 4)
        s = t + F(int(rng.integers(1, 13)), 12)
        b = F(int(rng.integers(-6, 7)), 6)
        d = F(int(rng.integers(-6, 7)), 6)
        bump_b = F(int(rng.integers(1, 7)), 6)
        bump_d = F(int(rng.integers(1, 7)), 6)
        A = V(l, s, (b,), (d,))
        B = V(l, t, (b + 3 / t - 3 / s + bump_b,), (d + 2 / t - 2 / s + bump_d,))
        assert embeds(A, B).verdict == "holds"


# -- boundedness exponents -----------------------------------------------------------

def test_sigma_exponent_cases():
    out = sigma_exponents(2, F(4), [F(0), F(13, 10), F(8, 5)])
    assert out[0] == 0
    assert out[1] == Eps(F(1, 4), 1)
    assert out[2] == F(7, 20)


def test_sigma_exponent_monotone():
    deltas = [F(k, 20) for k in range(-10, 50)]
    out = sigma_exponents(2, F(4), deltas)
    assert all(a <= b for a, b in zip(out, out[1:]))


def test_sigma_exponent_needs_supercritical():
    with pytest.raises(ValueError):
        sigma_exponents(1, F(2), [F(0)])
