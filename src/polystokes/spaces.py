"""Symbolic algebra of the weighted Sobolev/Holder space scale.

Descriptors carry the kind (V/W homogeneous/nonhomogeneous Sobolev, N/C
weighted Holder, plus the nonweighted spaces), smoothness, integrability and
the per-vertex/per-edge weight exponents.  ``embeds`` is a certifier: it
answers "holds" only when a chain of the encoded embedding rules proves the
inclusion, and "unknown" otherwise - never "does not embed".

The Sobolev-step, Sobolev-to-Holder and Holder-monotone rules read the
weights against the level of each space, l - 3/s on the Sobolev kinds and
l + sigma on the Holder kinds: the level must not rise from source to target,
and beta - level and delta - level must not decrease (on a cone the vertex
ones stay equal, except on the C scale).

Arbitrarily small positive quantities are kept symbolic: ``Eps(x, k)`` means
x + k*epsilon, and comparisons resolve lexicographically, so "x+eps <= y"
means exactly x < y.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "Eps",
    "SpaceDescriptor",
    "EmbeddingJudgment",
    "embeds",
    "holder_embeds",
    "sigma_exponents",
]

Number = Union[int, float, Fraction]


@dataclass(frozen=True, order=False)
class Eps:
    """A number plus an integer multiple of an arbitrarily small positive eps."""

    val: Number
    k: int = 0

    def __add__(self, other):
        if isinstance(other, Eps):
            return Eps(self.val + other.val, self.k + other.k)
        return Eps(self.val + other, self.k)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Eps):
            return Eps(self.val - other.val, self.k - other.k)
        return Eps(self.val - other, self.k)

    def __rsub__(self, other):
        return Eps(other - self.val, -self.k)

    def __neg__(self):
        return Eps(-self.val, -self.k)

    # a plain number is x + 0*eps: compared as (x, 0) without wrapping it
    def __eq__(self, other):
        if isinstance(other, Eps):
            return self.val == other.val and self.k == other.k
        return self.val == other and self.k == 0

    def __hash__(self):
        # equal to the plain number's hash when k == 0, as ``==`` requires
        return hash(self.val) if self.k == 0 else hash((self.val, self.k))

    def __lt__(self, other):
        if isinstance(other, Eps):
            return (self.val, self.k) < (other.val, other.k)
        return (self.val, self.k) < (other, 0)

    def __le__(self, other):
        if isinstance(other, Eps):
            return (self.val, self.k) <= (other.val, other.k)
        return (self.val, self.k) <= (other, 0)

    def __gt__(self, other):
        if isinstance(other, Eps):
            return (self.val, self.k) > (other.val, other.k)
        return (self.val, self.k) > (other, 0)

    def __ge__(self, other):
        if isinstance(other, Eps):
            return (self.val, self.k) >= (other.val, other.k)
        return (self.val, self.k) >= (other, 0)

    def __str__(self):
        if self.k == 0:
            return str(self.val)
        tail = "+eps" if self.k == 1 else ("%+deps" % self.k)
        return "%s%s" % (self.val, tail)


def as_eps(x) -> Eps:
    if isinstance(x, Eps):
        return x
    return Eps(x, 0)


_KINDS = ("V", "W", "N", "C", "sobolev", "holder")
_SOBOLEV_KINDS = ("V", "W", "sobolev")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identity of one space in the weighted scale.

    ``s`` is the integrability (None for the Holder kinds), ``sigma`` the
    Holder exponent (None for the Sobolev kinds).  ``beta``/``delta`` hold one
    weight exponent per vertex/edge; the nonweighted kinds carry zeros.
    ``domain`` is "cone" or "domain" (bounded polyhedron).
    """

    kind: str
    l: int
    beta: Tuple[Eps, ...]
    delta: Tuple[Eps, ...]
    s: Optional[Number] = None
    sigma: Optional[Number] = None
    domain: str = "domain"

    @staticmethod
    def make(kind, l, beta, delta, s=None, sigma=None, domain="domain"):
        beta = tuple(as_eps(b) for b in (beta if isinstance(beta, (tuple, list)) else (beta,)))
        delta = tuple(as_eps(d) for d in (delta if isinstance(delta, (tuple, list)) else (delta,)))
        return SpaceDescriptor(kind, int(l), beta, delta, s, sigma, domain)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown space kind %r" % (self.kind,))
        if self.domain not in ("cone", "domain"):
            raise ValueError("domain tag must be 'cone' or 'domain'")
        if self.kind in _SOBOLEV_KINDS:
            if self.s is None or not 1 < self.s:
                raise ValueError("Sobolev kinds need integrability s > 1")
            if self.l < -1:
                raise ValueError("smoothness below -1 is not modeled")
        else:
            if self.sigma is None or not 0 < self.sigma < 1:
                raise ValueError("Holder kinds need sigma in (0, 1)")
        if self.kind == "W" and any(d <= Fraction(-2) / Fraction(self.s)
                                    if isinstance(self.s, (int, Fraction))
                                    else d <= -2.0 / self.s for d in self.delta):
            raise ValueError("W kind requires every delta_k > -2/s")
        if self.kind == "C" and any(d < 0 for d in self.delta):
            raise ValueError("C kind requires nonnegative delta_k")
        if self.kind in ("sobolev", "holder") and (
                any(b != 0 for b in self.beta) or any(d != 0 for d in self.delta)):
            raise ValueError("nonweighted kinds carry zero weights")

    def smooth(self) -> Eps:
        """l + sigma for Holder kinds, l for Sobolev kinds."""
        return as_eps(self.l if self.sigma is None else self.l + self.sigma)

    def __str__(self):
        w = ";".join(("beta=(%s)" % ",".join(map(str, self.beta)),
                      "delta=(%s)" % ",".join(map(str, self.delta))))
        if self.kind in _SOBOLEV_KINDS:
            head = "%s[l=%s,s=%s" % (self.kind, self.l, self.s)
        else:
            head = "%s[l=%s,sigma=%s" % (self.kind, self.l, self.sigma)
        return "%s;%s]@%s" % (head, w, self.domain)


@dataclass(frozen=True)
class EmbeddingJudgment:
    verdict: str  # 'holds' | 'unknown'
    chain: Tuple[Tuple[str, str], ...] = ()

    def __bool__(self):
        return self.verdict == "holds"


def _inv(x: Number) -> Number:
    if isinstance(x, (int, Fraction)):
        return Fraction(1, 1) / Fraction(x)
    return 1.0 / x


def _three_over(s: Number) -> Number:
    return 3 * _inv(s)


def _two_over(s: Number) -> Number:
    return 2 * _inv(s)


def _level(d: SpaceDescriptor) -> Eps:
    """The level the weights are read against: l - 3/s on the Sobolev kinds,
    l + sigma on the Holder kinds."""
    return as_eps(d.l - _three_over(d.s)) if d.kind in _SOBOLEV_KINDS else d.smooth()


def _weights_rise(a, b, level_a, level_b, equal_vertices=False) -> bool:
    """beta - level and delta - level do not decrease from ``a`` to ``b``;
    with ``equal_vertices`` the vertex ones stay equal."""
    for ba, bb in zip(a.beta, b.beta):
        lhs, rhs = ba - level_a, bb - level_b
        if not (lhs == rhs if equal_vertices else lhs <= rhs):
            return False
    return all(da - level_a <= db - level_b for da, db in zip(a.delta, b.delta))


# -- direct rules ------------------------------------------------------------------
# Each rule sees descriptors of matching dimensions (``_direct`` checks).

def _rule_refl(a, b):
    if a == b:
        return "identical descriptors"
    return None

def _rule_sobolev_step(a, b):
    """V->V continuity-of-smoothness step (equality of the vertex invariant on
    a cone, inequality on a bounded domain)."""
    if a.kind != "V" or b.kind != "V" or not 1 < a.s <= b.s:
        return None
    la, lb = _level(a), _level(b)
    if not (la >= lb and _weights_rise(a, b, la, lb, a.domain == "cone")):
        return None
    return ("vertex weight invariant %s, edge invariants nondecreasing, smoothness drop"
            % ("preserved" if a.domain == "cone" else "nondecreasing"))

def _rule_weight_relax(a, b):
    """Same-l step to lower integrability with strictly larger weights (bounded
    domains only; Holder's inequality in the weights)."""
    if a.domain != "domain" or a.kind not in ("V", "W") or b.kind != a.kind or a.l != b.l:
        return None
    s, t = a.s, b.s
    if not (1 < t < s):
        return None
    for ba, bb in zip(a.beta, b.beta):
        if not ba + _three_over(s) < bb + _three_over(t):
            return None
    for da, db in zip(a.delta, b.delta):
        if not da + _two_over(s) < db + _two_over(t):
            return None
    return "weight relaxation at lower integrability"

def _rule_w_monotone(a, b):
    # reads beta - l, not beta - (l - 3/s): on float s the two round apart at ties
    if a.kind != "W" or b.kind != "W" or a.s != b.s or not a.l >= b.l:
        return None
    if not _weights_rise(a, b, as_eps(a.l), as_eps(b.l)):
        return None
    return "nonhomogeneous scale monotone in (l, weights)"

def _rule_holder_embedding(a, b):
    """V -> N Sobolev-to-Holder embedding."""
    if a.kind != "V" or b.kind != "N":
        return None
    la, lb = _level(a), _level(b)
    if not (la > lb and _weights_rise(a, b, la, lb, a.domain == "cone")):
        return None
    return "supercritical smoothness, weight invariants aligned"

def _rule_holder_monotone(a, b):
    if a.kind not in ("N", "C") or b.kind != a.kind:
        return None
    la, lb = _level(a), _level(b)
    if not (la >= lb and _weights_rise(a, b, la, lb, a.domain == "cone" and a.kind == "N")):
        return None
    return "Holder scale monotone in (l+sigma, weights)"

def _rule_n_in_c(a, b):
    if a.kind != "N" or b.kind != "C":
        return None
    if (a.l, a.sigma, a.beta, a.delta, a.domain) == (b.l, b.sigma, b.beta, b.delta, b.domain):
        return "restricted Holder scale inside the full one"
    return None

_DIRECT_RULES = (
    ("refl", _rule_refl),
    ("embed-V", _rule_sobolev_step),
    ("relax-weights", _rule_weight_relax),
    ("W-monotone", _rule_w_monotone),
    ("V-to-N", _rule_holder_embedding),
    ("holder-monotone", _rule_holder_monotone),
    ("N-in-C", _rule_n_in_c),
)


def _coincides_vw(d: SpaceDescriptor) -> bool:
    # W requires every delta_k > -2/s, so at order -1 that is the threshold
    thr = as_eps(max(d.l, 0) - _two_over(d.s))
    return all(dk > thr for dk in d.delta)


def _equal_neighbors(d: SpaceDescriptor, like: SpaceDescriptor):
    """One-step identifications (space equalities), dimensioned by ``like``."""
    if d.kind == "V" and _coincides_vw(d):
        yield replace(d, kind="W"), ("V=W", "all edge weights above l-2/s")
    if d.kind == "W" and _coincides_vw(d):
        yield replace(d, kind="V"), ("V=W", "all edge weights above l-2/s")
    if d.kind == "sobolev" and d.domain == "domain" and d.l == 1:
        zero_b = tuple(as_eps(0) for _ in like.beta)
        zero_d = tuple(as_eps(0) for _ in like.delta)
        if d.s < 2:
            yield (SpaceDescriptor("V", 1, zero_b, zero_d, d.s, None, "domain"),
                   ("nonweighted-id", "first-order space equals the zero-weight homogeneous space below s=2"))
        if d.s < 3:
            yield (SpaceDescriptor("W", 1, zero_b, zero_d, d.s, None, "domain"),
                   ("nonweighted-id", "first-order space equals the zero-weight space below s=3"))
    if d.kind in ("V", "W") and d.domain == "domain" and d.l == 1 and \
            all(b == 0 for b in d.beta) and all(dk == 0 for dk in d.delta):
        if (d.kind == "V" and d.s < 2) or (d.kind == "W" and d.s < 3):
            yield (SpaceDescriptor("sobolev", 1, (), (), d.s, None, "domain"),
                   ("nonweighted-id", "zero-weight space equals the nonweighted one"))
    if d.kind == "N" and all(dk >= d.l + d.sigma for dk in d.delta):
        yield replace(d, kind="C"), ("N=C", "edge weights at or above l+sigma")
    if d.kind == "C" and all(dk >= d.l + d.sigma for dk in d.delta):
        yield replace(d, kind="N"), ("N=C", "edge weights at or above l+sigma")


def _direct(a: SpaceDescriptor, b: SpaceDescriptor):
    if len(a.beta) != len(b.beta) or len(a.delta) != len(b.delta):
        return None
    for name, rule in _DIRECT_RULES:
        note = rule(a, b)
        if note is not None:
            return (name, note)
    return None


def embeds(a: SpaceDescriptor, b: SpaceDescriptor) -> EmbeddingJudgment:
    """Certify a continuous embedding by a rule chain of length at most 3.

    Sound, not complete: "unknown" never means the embedding fails.
    """
    if a.domain != b.domain:
        raise ValueError("descriptors live over different domain tags")
    lefts = [(a, ())]
    for nb, step in _equal_neighbors(a, b):
        lefts.append((nb, (step,)))
    rights = [(b, ())]
    for nb, step in _equal_neighbors(b, a):
        rights.append((nb, (step,)))
    for left, chain_l in lefts:
        for right, chain_r in rights:
            if left == right and (chain_l or chain_r):
                return EmbeddingJudgment("holds", chain_l + chain_r)
            hit = _direct(left, right)
            if hit is not None:
                return EmbeddingJudgment("holds", chain_l + (hit,) + chain_r)
    return EmbeddingJudgment("unknown")


def holder_embeds(a: SpaceDescriptor, b: SpaceDescriptor) -> EmbeddingJudgment:
    """Certify a Sobolev-to-weighted-Holder embedding (target kind N)."""
    if b.kind != "N":
        raise ValueError("target must be an N descriptor")
    if a.kind not in ("V", "W"):
        raise ValueError("source must be a V or W descriptor")
    return embeds(a, b)


def sigma_exponents(l: int, s: Number, delta: Sequence[Number]) -> Tuple[Eps, ...]:
    """Per-edge boundedness exponents of an order-l nonhomogeneous space.

    Case split per edge weight: zero below l-3/s, the symbolic 1/s+eps in the
    transition band [l-3/s, l-2/s], and delta_k-l+3/s above it.
    """
    if not as_eps(l) > as_eps(_three_over(s)):
        raise ValueError("needs l > 3/s")
    out: List[Eps] = []
    low = as_eps(l - _three_over(s))
    high = as_eps(l - _two_over(s))
    for dk in map(as_eps, delta):
        if dk < low:
            out.append(as_eps(0))
        elif dk <= high:
            out.append(Eps(_inv(s), 1))
        else:
            out.append(dk - l + _three_over(s))
    return tuple(out)
