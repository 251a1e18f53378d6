"""
Componentwise-order posets on integer vectors, Moebius functions, the
support poset of a Grothendieck polynomial, and the conjecture checkers
that live on it.

conj1, conj2, conj3, coeff and rajchgot read the packed view of the support
(`poly.support_view`), which is kept for the last polynomial, so the checks
of one permutation share a single build.
"""
from __future__ import annotations

from operator import le
from typing import Dict, Set, Tuple

from . import perms
from .poly import Poly, codes, decode, support_view
from .verdicts import NotApplicable, Verdict

# Adjoined minimum element: a distinguished sentinel, deliberately not the
# zero vector (which is a legitimate element for w = identity).
BOTTOM = "0^"


class VectorPoset:
    """A finite interval-closed set of integer vectors of length n under
    componentwise order: whenever a <= c <= b with a and b in the set, c is
    in it too.  P_w (`build_Pw`) is one: such a c lies above the support
    point below a and below the bound above b."""

    def __init__(self, elements, n: int):
        self.elements = frozenset(elements)
        self.n = n

    def covers(self) -> Set[Tuple[tuple, tuple]]:
        """Hasse relation among the vector elements (the bottom is excluded;
        its covers are the minimal vectors): b covers a iff b = a + e_i.  If
        a < b otherwise, then a < a + e_i < b for some i, and interval
        closure puts a + e_i in the set; no vector lies strictly between a
        and a + e_i."""
        elements = self.elements
        return {(a, b) for a in elements for b in _unit_steps(a) if b in elements}

    def hasse_text(self) -> str:
        """Line-oriented export `vector -> vector` of the Hasse covers."""
        lines = [
            ",".join(map(str, a)) + " -> " + ",".join(map(str, b))
            for (a, b) in self.covers()
        ]
        return "\n".join(sorted(lines))


def _unit_steps(alpha: tuple):
    """alpha + e_i for i = 1..n."""
    for i in range(len(alpha)):
        yield alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def mobius(P: VectorPoset) -> Dict[object, int]:
    """The table mu(0^, q) for every q of P with the bottom 0^ adjoined
    (the paper's P-hat_w), for P an upper set of its box [0, max P] (max
    taken componentwise), by inclusion-exclusion:
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
    Grothendieck polynomial and the weight of the closed Rothe diagram (the
    paper's P_w; `mobius` adjoins the bottom): the upward closure of the
    support inside the box [0, weight], found by a search over +e_i steps.
    Every v in the box above some alpha in the support is reached from alpha
    by unit steps that stay below v, hence inside the box."""
    bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
    frontier = [alpha for alpha in groth.support() if all(map(le, alpha, bound))]
    elements = set(frontier)
    while frontier:
        alpha = frontier.pop()
        for i, beta in enumerate(_unit_steps(alpha)):
            if alpha[i] < bound[i] and beta not in elements:
                elements.add(beta)
                frontier.append(beta)
    return VectorPoset(elements, len(w))


def check_conjecture_1(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has a strict upper bound
    in the support; equivalently every maximal support element has full
    degree."""
    view = support_view(groth)
    if view.low_maxima:
        witness = decode(view.low_maxima[0], view.n)
        return Verdict(False, witness=witness, detail="maximal below top degree")
    return Verdict(True)


def check_conjecture_2(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has an upper bound in the
    support exactly one degree higher.  Such a bound beta >= alpha with
    |beta| = |alpha| + 1 exceeds alpha in exactly one coordinate by one, so
    it is alpha + e_i for some i."""
    view = support_view(groth)
    if view.uncovered:
        witness = decode(view.uncovered[0], view.n)
        return Verdict(False, witness=witness, detail="no cover one degree up")
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
    box point in that order.

    In the view's bitsets (`poly._SupportView`), with P the support, D its
    down-closure and M_i the points whose step + e_i stays in the box, the
    failing steps are (union over i of (P & M_i) << w_i) & D & ~P, the
    view's `missing`: steps of support points that lie below some point of
    the support, hence below a maximum, and are not in it.  For the first
    of them, beta, the box named is [alpha, m]: alpha the first support
    point one step below beta, m the first maximum above it."""
    view = support_view(groth)
    if view.missing:
        n, high = view.n, view.high
        beta = view.missing[0]
        up = 1 << 8 * n
        steps = {beta - up - (1 << 8 * i) for i in range(n) if beta >> 8 * i & 0xFF}
        alpha = min(steps.intersection(view.codes))
        m = min(m for m in view.maxima if ((m | high) - beta) & high == high)
        detail = f"missing in box [{decode(alpha, n)}, {decode(m, n)}]"
        return Verdict(False, witness=decode(beta, n), detail=detail)
    return Verdict(True)


def check_conjecture_coeff(w: tuple, groth: Poly) -> Verdict:
    """For each top-degree support exponent beta, the coefficients over
    {alpha in supp : alpha <= beta} sum to 1.  The view's codes follow the
    order of `groth.terms`, so they pair with its coefficients."""
    view = support_view(groth)
    high = view.high
    terms = list(zip(view.codes, groth.terms.values()))
    for beta in view.top_codes:
        beta_high = beta | high
        total = sum(c for alpha, c in terms if (beta_high - alpha) & high == high)
        if total != 1:
            return Verdict(False, witness=decode(beta, view.n), detail=f"coefficient sum {total}")
    return Verdict(True)


def check_rajchgot(w: tuple, groth: Poly) -> Verdict:
    """The top degree of the Grothendieck polynomial is |rajcode(w)|, and its
    leading exponent in term order is rajcode(w); a failure names the
    leading exponent.  With the degree byte masked off, the numeric order of
    the codes is term order, so the leading exponent is the largest masked
    code."""
    view = support_view(groth)
    rc = perms.rajcode(w)
    coordinates = (1 << 8 * view.n) - 1
    leading = decode(max(map(coordinates.__and__, view.codes)), view.n)
    if view.degree == sum(rc) and leading == rc:
        return Verdict(True)
    return Verdict(False, witness=leading)


def check_conjecture_mobius(w: tuple, groth: Poly) -> Verdict:
    """On zero-one permutations, the Grothendieck coefficients equal the
    negated Moebius values of the support poset with bottom; NotApplicable
    on any other w.  A failure names the first wrong exponent in code order
    (`poly.codes`): degree, then term order."""
    if not perms.is_zero_one(w):
        return NotApplicable("not a zero-one permutation")
    P = build_Pw(w, groth)
    mu = mobius(P)
    wrong = [alpha for alpha in P.elements if groth.terms.get(alpha, 0) != -mu[alpha]]
    if wrong:
        alpha = min(wrong, key=codes.__getitem__)
        return Verdict(
            False,
            witness=alpha,
            detail=f"coefficient {groth.terms.get(alpha, 0)} != -mu = {-mu[alpha]}",
        )
    return Verdict(True)
