"""
Componentwise-order posets on integer vectors, Moebius functions, the
support poset of a Grothendieck polynomial, and the conjecture checkers
that live on it.
"""
from __future__ import annotations

from operator import le
from typing import Dict, FrozenSet, Set, Tuple

from . import perms
from .poly import Poly, term_key
from .verdicts import Verdict

# Adjoined minimum element: a distinguished sentinel, deliberately not the
# zero vector (which is a legitimate element for w = identity).
BOTTOM = "0^"


def componentwise_leq(alpha: tuple, beta: tuple) -> bool:
    if len(alpha) != len(beta):
        raise ValueError(f"length mismatch: {alpha} vs {beta}")
    return all(a <= b for a, b in zip(alpha, beta))


class VectorPoset:
    """A finite set of integer vectors of uniform length under componentwise
    order, optionally with an adjoined bottom below everything."""

    def __init__(self, elements, n: int, has_bottom: bool = False):
        elements = frozenset(tuple(e) for e in elements)
        for e in elements:
            if len(e) != n:
                raise ValueError(f"element {e} does not have length {n}")
        self.elements = elements
        self.n = n
        self.has_bottom = has_bottom

    def leq(self, a, b) -> bool:
        if a == BOTTOM:
            return True
        if b == BOTTOM:
            return a == BOTTOM
        return componentwise_leq(a, b)

    def covers(self) -> Set[Tuple[tuple, tuple]]:
        """Hasse relation among the vector elements (the bottom is excluded;
        its covers are the minimal vectors)."""
        els = sorted(self.elements, key=lambda v: (sum(v), term_key(v)))
        result = set()
        for a in els:
            for b in els:
                if a == b or not componentwise_leq(a, b):
                    continue
                if any(
                    c != a and c != b
                    and componentwise_leq(a, c)
                    and componentwise_leq(c, b)
                    for c in els
                ):
                    continue
                result.add((a, b))
        return result

    def maximal_elements(self) -> FrozenSet[tuple]:
        """Scan the elements in decreasing degree and keep alpha iff no kept
        maximum is >= alpha.  Anything strictly above alpha has larger degree,
        so it was scanned first and is itself a kept maximum or lies below
        one; either way some kept maximum is >= alpha."""
        maxima: list = []
        for alpha in sorted(self.elements, key=sum, reverse=True):
            if not any(all(map(le, alpha, m)) for m in maxima):
                maxima.append(alpha)
        return frozenset(maxima)

    def hasse_text(self) -> str:
        """Line-oriented export `vector -> vector` of the Hasse covers."""
        lines = [
            ",".join(map(str, a)) + " -> " + ",".join(map(str, b))
            for (a, b) in self.covers()
        ]
        return "\n".join(sorted(lines))


def _order(v: tuple) -> tuple:
    """Linear extension of the componentwise order: degree, then term order.
    Failing checks report the first failing exponent in this order."""
    return (sum(v), term_key(v))


def _unit_steps(alpha: tuple):
    """alpha + e_i for i = 1..n."""
    for i in range(len(alpha)):
        yield alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def mobius(P: VectorPoset) -> Dict[object, int]:
    """The table mu(0^, q) for every q, for P an upper set of its box
    [0, max P] (max taken componentwise), by inclusion-exclusion:
    -mu(0^, q) = sum over S of [n] of (-1)^|S| h(q - e_S), where h is the
    indicator of P on Z^n.

    The right side, d(q), is the n-fold backward difference of h, so its sum
    over all r <= q telescopes to h(q).  It vanishes at every r >= 0 outside
    P: no r - e_S lies in P, since P is an upper set of a box that contains
    r.  So for q in P, the sum of d over P below q is h(q) = 1, which is
    mu(0^, 0^) + sum_{r in P, r <= q} mu(0^, r) = 0 with mu = -d: the
    defining recursion.  The differences are taken one coordinate at a time,
    and each partial difference vanishes off P for the same reason, so the
    cost is O(n |P|)."""
    if not P.has_bottom:
        raise ValueError("mobius requires a poset with an adjoined bottom")
    elements = P.elements
    top = tuple(map(max, zip(*elements)))
    for i, t in enumerate(top):
        for v in elements:
            if v[i] < 0 or (v[i] < t and v[:i] + (v[i] + 1,) + v[i + 1:] not in elements):
                raise ValueError(
                    f"mobius requires an upper set of the box [0, {top}]; {v} breaks it"
                )
    diff = dict.fromkeys(elements, 1)
    for i in range(P.n):
        diff = {
            q: c - diff.get(q[:i] + (q[i] - 1,) + q[i + 1:], 0)
            for q, c in diff.items()
        }
    table: Dict[object, int] = {BOTTOM: 1}
    table.update((q, -c) for q, c in diff.items())
    return table


def build_Pw(w: tuple, groth: Poly) -> VectorPoset:
    """All integer vectors sandwiched between some support exponent of the
    Grothendieck polynomial and the weight of the closed Rothe diagram, with
    an adjoined bottom: the upward closure of the support inside the box
    [0, weight], found by a search over +e_i steps.  Every v in the box above
    some alpha in the support is reached from alpha by unit steps that stay
    below v, hence inside the box."""
    bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
    frontier = [alpha for alpha in groth.support() if all(map(le, alpha, bound))]
    elements = set(frontier)
    while frontier:
        alpha = frontier.pop()
        for i, beta in enumerate(_unit_steps(alpha)):
            if alpha[i] < bound[i] and beta not in elements:
                elements.add(beta)
                frontier.append(beta)
    return VectorPoset(elements, len(w), has_bottom=True)


def check_conjecture_1(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has a strict upper bound
    in the support; equivalently every maximal support element has full
    degree."""
    deg = groth.degree()
    supp_poset = VectorPoset(groth.support(), len(w))
    low = [alpha for alpha in supp_poset.maximal_elements() if sum(alpha) < deg]
    if low:
        return Verdict(False, witness=min(low, key=_order), detail="maximal below top degree")
    return Verdict(True)


def check_conjecture_2(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has an upper bound in the
    support exactly one degree higher.  Such a bound beta >= alpha with
    |beta| = |alpha| + 1 exceeds alpha in exactly one coordinate by one, so
    it is alpha + e_i for some i."""
    deg = groth.degree()
    supp = groth.support()
    missing = [
        alpha
        for alpha in supp
        if sum(alpha) < deg and not any(beta in supp for beta in _unit_steps(alpha))
    ]
    if missing:
        return Verdict(False, witness=min(missing, key=_order), detail="no cover one degree up")
    return Verdict(True)


def check_conjecture_3(w: tuple, groth: Poly) -> Verdict:
    """The support is closed under componentwise intervals: for alpha <= gamma
    in the support, every integer vector in the box [alpha, gamma] is in the
    support.

    Any interval [alpha, gamma] lies in [alpha, m] for a maximal m >= gamma,
    and closure of those boxes is a local property: it holds iff
    alpha + e_i is in the support whenever alpha is and alpha + e_i lies
    below some maximum.  Given the local property, any beta in [alpha, m] is
    reached from alpha by unit steps that stay below beta <= m.  A missing
    beta of least degree is itself such a failing step, so the witness (the
    first failing step in degree, then term order) is also the first missing
    box point in that order."""
    supp = groth.support()
    maxima = sorted(VectorPoset(supp, len(w)).maximal_elements(), key=_order)

    # alpha + e_i lies below the maximum m iff alpha <= m and alpha_i < m_i.
    missing = set()
    for alpha in supp:
        for m in maxima:
            if all(map(le, alpha, m)):
                for i, (a, b) in enumerate(zip(alpha, m)):
                    if a < b:
                        beta = alpha[:i] + (a + 1,) + alpha[i + 1:]
                        if beta not in supp:
                            missing.add(beta)
    if missing:
        beta = min(missing, key=_order)
        alpha = min(
            (a for a in supp if sum(a) + 1 == sum(beta) and all(map(le, a, beta))),
            key=_order,
        )
        m = next(m for m in maxima if all(map(le, beta, m)))
        return Verdict(False, witness=beta, detail=f"missing in box [{alpha}, {m}]")
    return Verdict(True)


def check_conjecture_coeff(w: tuple, groth: Poly) -> Verdict:
    """For each top-degree support exponent beta, the coefficients over
    {alpha in supp : alpha <= beta} sum to 1."""
    for beta in sorted(groth.top_component().support(), key=term_key):
        total = sum(
            c for alpha, c in groth.terms.items() if componentwise_leq(alpha, beta)
        )
        if total != 1:
            return Verdict(False, witness=beta, detail=f"coefficient sum {total}")
    return Verdict(True)


def check_conjecture_mobius(w: tuple, groth: Poly) -> Verdict:
    """On zero-one permutations, the Grothendieck coefficients equal the
    negated Moebius values of the support poset with bottom."""
    if not perms.is_zero_one(w):
        raise ValueError(
            f"{w} is not zero-one; the Moebius conjecture does not apply"
        )
    P = build_Pw(w, groth)
    mu = mobius(P)
    wrong = [alpha for alpha in P.elements if groth.terms.get(alpha, 0) != -mu[alpha]]
    if wrong:
        alpha = min(wrong, key=_order)
        return Verdict(
            False,
            witness=alpha,
            detail=f"coefficient {groth.terms.get(alpha, 0)} != -mu = {-mu[alpha]}",
        )
    return Verdict(True)
