"""
Componentwise-order posets on integer vectors, Moebius functions, the
support poset of a Grothendieck polynomial, and the conjecture checkers
that live on it.

conj1, conj2, conj3 and coeff read one packed view of the support
(`_SupportView`), built once per polynomial and kept for the last one, so
the checks of one permutation share a single build.  The view codes an
exponent vector with one byte per coordinate, x_1 lowest:
code(alpha) = sum of alpha_i 256^(i-1) = `int.from_bytes(bytes(alpha),
"little")`.  So the unit step alpha + e_i is code(alpha) + 256^(i-1), and
the numeric order of the codes is the canonical term order (`term_key`:
the last coordinate weighs most).  With H the mask that has 0x80 in every
byte, alpha <= beta componentwise iff ((code(beta) | H) - code(alpha)) & H
== H.  Proof: while every entry is < 128, byte i of the difference is
beta_i + 128 - alpha_i, which lies in 1..255, so no byte borrows from the
next and its high bit is set iff beta_i >= alpha_i.  Every entry is at most
the degree, so the view refuses a degree >= 127 with a ValueError; below
that, the unit steps have entries < 128 too.
"""
from __future__ import annotations

from operator import le
from typing import Dict, FrozenSet, Set, Tuple

from . import perms
from .poly import Poly, term_key
from .verdicts import NotApplicable, Verdict

# Adjoined minimum element: a distinguished sentinel, deliberately not the
# zero vector (which is a legitimate element for w = identity).
BOTTOM = "0^"


def componentwise_leq(alpha: tuple, beta: tuple) -> bool:
    if len(alpha) != len(beta):
        raise ValueError(f"length mismatch: {alpha} vs {beta}")
    return all(a <= b for a, b in zip(alpha, beta))


class VectorPoset:
    """A finite set of integer vectors of uniform length under componentwise
    order."""

    def __init__(self, elements, n: int):
        elements = frozenset(tuple(e) for e in elements)
        for e in elements:
            if len(e) != n:
                raise ValueError(f"element {e} does not have length {n}")
        self.elements = elements
        self.n = n

    def leq(self, a, b) -> bool:
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
        """The maxima, as found by the packed support view (entries >= 0,
        degree < 127)."""
        view = _SupportView(self.elements, self.n)
        return frozenset(_vector(m, self.n) for m in view.maxima)

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


def _code(alpha: tuple) -> int:
    """One byte per coordinate, x_1 lowest (see the module docstring)."""
    return int.from_bytes(bytes(alpha), "little")


def _vector(code: int, n: int) -> tuple:
    """The exponent vector of a code of length n."""
    return tuple(code.to_bytes(n, "little"))


class _SupportView:
    """Packed facts about a set of exponent vectors of length n, with
    entries >= 0 and degree < 127 (see the module docstring):

    - `codes`: the code of each vector, in the order given;
    - `high`: H, the mask with 0x80 in each of the n bytes;
    - `top_codes`: the codes of the top degree, in term order;
    - `gaps`: for each code below the top degree, the mask with 0xFF in
      byte i iff the unit step alpha + e_i is not in the set;
    - `uncovered`: the codes below the top degree with no unit step in the
      set, in degree, then term order;
    - `maxima`: `top_codes`, then `low_maxima`, the maximal uncovered codes
      in degree, then term order.

    An element with a unit step in the set lies below that step, so only the
    top-degree and the uncovered elements can be maximal; those of top
    degree are.  The uncovered ones are scanned in decreasing degree, and
    each is kept iff no kept maximum is >= it: anything strictly above it
    has larger degree, so it is a kept maximum or lies below one."""

    __slots__ = ("n", "codes", "high", "top_codes", "gaps", "uncovered", "maxima", "low_maxima")

    def __init__(self, vectors, n: int):
        degrees = list(map(sum, vectors))
        top = max(degrees, default=0)
        if top >= 127:
            raise ValueError(f"degree {top} is too large for the packed support view (< 127)")
        codes = list(map(_code, vectors))
        present = set(codes)
        steps = [(1 << 8 * i, 0xFF << 8 * i) for i in range(n)]
        full = (1 << 8 * n) - 1
        high = _code((0x80,) * n)
        top_codes, gaps, uncovered = [], {}, []
        for code, d in zip(codes, degrees):
            if d == top:
                top_codes.append(code)
                continue
            gap = 0
            for unit, byte in steps:
                if code + unit not in present:
                    gap |= byte
            gaps[code] = gap
            if gap == full:
                uncovered.append((d, code))
        uncovered.sort()
        maxima = sorted(top_codes)
        self.top_codes = maxima[:]
        low_maxima = []
        for _, code in reversed(uncovered):
            if not any(((m | high) - code) & high == high for m in maxima):
                maxima.append(code)
                low_maxima.append(code)
        low_maxima.reverse()
        self.n, self.codes, self.high, self.gaps = n, codes, high, gaps
        self.uncovered = [code for _, code in uncovered]
        self.maxima, self.low_maxima = maxima, low_maxima


# The view of the last polynomial asked for, with a strong reference to that
# polynomial, so that `is` cannot match a recycled id: the checks of one
# permutation share one build.  (`functools.lru_cache` would hash every term.)
_last_view: tuple = (None, None)


def _support_view(groth: Poly) -> _SupportView:
    global _last_view
    source, view = _last_view
    if source is not groth:
        if not groth.terms:
            raise ValueError("the zero polynomial has no support")
        view = _SupportView(groth.terms, groth.nvars)
        _last_view = (groth, view)
    return view


def check_conjecture_1(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has a strict upper bound
    in the support; equivalently every maximal support element has full
    degree."""
    view = _support_view(groth)
    if view.low_maxima:
        witness = _vector(view.low_maxima[0], view.n)
        return Verdict(False, witness=witness, detail="maximal below top degree")
    return Verdict(True)


def check_conjecture_2(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has an upper bound in the
    support exactly one degree higher.  Such a bound beta >= alpha with
    |beta| = |alpha| + 1 exceeds alpha in exactly one coordinate by one, so
    it is alpha + e_i for some i."""
    view = _support_view(groth)
    if view.uncovered:
        witness = _vector(view.uncovered[0], view.n)
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

    For codes alpha <= m, byte i of m - alpha is m_i - alpha_i, so
    (m - alpha) & gap(alpha) names the failing steps below m.  One pass
    records every (beta, alpha, m); the alphas recorded for beta are all the
    support points one step below it, and the ms all the maxima above it."""
    view = _support_view(groth)
    n, high = view.n, view.high
    maxima = [(m | high, m) for m in view.maxima]
    failing = []
    for alpha, gap in view.gaps.items():
        if gap:
            for m_high, m in maxima:
                if (m_high - alpha) & high == high and (bad := (m - alpha) & gap):
                    steps = bad.to_bytes(n, "little")
                    failing.extend((alpha + (1 << 8 * i), alpha, m) for i, s in enumerate(steps) if s)
    if failing:
        key = lambda code: (sum(code.to_bytes(n, "little")), code)  # `_order` on codes
        beta = min((b for b, _, _ in failing), key=key)
        alpha = min((a for b, a, _ in failing if b == beta), key=key)
        m = min((m for b, _, m in failing if b == beta), key=key)
        detail = f"missing in box [{_vector(alpha, n)}, {_vector(m, n)}]"
        return Verdict(False, witness=_vector(beta, n), detail=detail)
    return Verdict(True)


def check_conjecture_coeff(w: tuple, groth: Poly) -> Verdict:
    """For each top-degree support exponent beta, the coefficients over
    {alpha in supp : alpha <= beta} sum to 1.  The view's codes follow the
    order of `groth.terms`, so they pair with its coefficients."""
    view = _support_view(groth)
    high = view.high
    terms = list(zip(view.codes, groth.terms.values()))
    for beta in view.top_codes:
        beta_high = beta | high
        total = sum(c for alpha, c in terms if (beta_high - alpha) & high == high)
        if total != 1:
            return Verdict(False, witness=_vector(beta, view.n), detail=f"coefficient sum {total}")
    return Verdict(True)


def check_conjecture_mobius(w: tuple, groth: Poly) -> Verdict:
    """On zero-one permutations, the Grothendieck coefficients equal the
    negated Moebius values of the support poset with bottom; NotApplicable
    on any other w."""
    if not perms.is_zero_one(w):
        return NotApplicable("not a zero-one permutation")
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
