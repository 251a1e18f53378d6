"""
The support poset P_w of a Grothendieck polynomial under componentwise
order, its Moebius function, and the conjecture checkers that live on the
support.

conj1, conj2, conj3, coeff, rajchgot and mobius read the packed view of the
support (`poly.support_view`), one build per polynomial (`perms.last_call`).
P_w is a bitset over the view's staircase box, and its elements are codes
(`poly.code`), as are the keys of every polynomial, decoded only where they
are printed.
"""
from __future__ import annotations

from typing import Dict, Set, Tuple

from . import perms
from .poly import Poly, decode, support_view
from .verdicts import PASS, NotApplicable, Verdict


class VectorPoset:
    """A finite interval-closed set of integer vectors of length n, entries
    in 0..255, held as their codes (`poly.code`), under componentwise
    order: whenever a <= c <= b with a and b in the set, c is in it too.
    P_w, which `build_Pw` returns and `hasse_text` prints, is one: such a c
    lies above the support point below a and below the bound above b.
    `mobius` builds its own P_w and reads only its elements."""

    def __init__(self, elements, n: int):
        self.elements = frozenset(elements)
        self.n = n

    def covers(self) -> Set[Tuple[int, int]]:
        """Hasse relation among the vector elements (the bottom is excluded;
        its covers are the minimal vectors): b covers a iff b = a + e_i.  If
        a < b otherwise, then a < a + e_i < b for some i, and interval
        closure puts a + e_i in the set; no vector lies strictly between a
        and a + e_i.  The code of a + e_i is a + 256^(i-1) + 256^n; where
        a_i = 255 the sum carries, its bytes sum to less than its degree
        |a| + 1, and no code has it."""
        elements, n = self.elements, self.n
        units = [1 << 8 * i | 1 << 8 * n for i in range(n)]
        return {(a, a + u) for a in elements for u in units if a + u in elements}

    def hasse_text(self) -> str:
        """Line-oriented export `vector -> vector` of the Hasse covers."""
        n = self.n
        lines = [
            ",".join(map(str, decode(a, n))) + " -> " + ",".join(map(str, decode(b, n)))
            for (a, b) in self.covers()
        ]
        return "\n".join(sorted(lines))


def mobius(w: tuple, groth: Poly) -> Dict[int, int]:
    """The table mu(0^, q) for every code q of P_w (`build_Pw`), with the
    bottom 0^ adjoined (the paper's P-hat_w; mu(0^, 0^) = 1 has no entry),
    by inclusion-exclusion: -mu(0^, q) = sum over S of [n] of
    (-1)^|S| h(q - e_S), where h is the indicator of P_w on Z^n.

    The right side, d(q), is the n-fold backward difference of h, so its sum
    over all r <= q telescopes to h(q).  It vanishes at every r in [0, b]
    outside P_w: no r - e_S lies in P_w, since P_w is an upper set of the
    box [0, b] below the closed Rothe weight b (proof in `build_Pw`).  For
    q in P_w only r in [0, q], inside [0, b], enter the sum, so the sum of
    d over P_w below q is h(q) = 1, which is
    mu(0^, 0^) + sum_{r in P_w, r <= q} mu(0^, r) = 0 with mu = -d: the
    defining recursion.  The differences are taken one coordinate at a time,
    and each partial difference vanishes off P_w in [0, b] for the same
    reason, so the cost is O(n |P_w|).

    On codes, q - e_i is q - 256^(i-1) - 256^n.  Where q_i = 0 the
    subtraction borrows, and no code matches the result, whose top part
    would have to be the sum of its bytes: the bytes from coordinate i up
    to the first nonzero entry above it become 255 and that entry loses
    one (with no such entry the top part loses one more, or the result is
    negative), so the bytes sum to at least 255 more than the top part."""
    P = build_Pw(w, groth)
    n = P.n
    diff = dict.fromkeys(P.elements, 1)
    for i in range(n):
        unit = 1 << 8 * i | 1 << 8 * n
        get = diff.get
        diff = {q: c - get(q - unit, 0) for q, c in diff.items()}
    return {q: -c for q, c in diff.items()}


def build_Pw(w: tuple, groth: Poly) -> VectorPoset:
    """All integer vectors sandwiched between some support exponent of the
    Grothendieck polynomial and the weight b of the closed Rothe diagram
    (the paper's P_w; `mobius` gives mu on it with the bottom adjoined):
    the upward closure of the support inside the box [0, b], as a bitset
    over the staircase box of S_n (`poly._Box`), read off the view's
    support P.  Being an up-closure inside [0, b], P_w is an upper set of
    [0, b], which `mobius` relies on.

    b lies in the staircase box, b_i <= n - i.  Entry i of b counts the
    columns j whose lowest box d_j in the Rothe diagram has d_j >= i.
    Each such j is w(s) for s = w^-1(j) > d_j >= i, since (d_j, j) is in
    the diagram, so there are at most n - i of them.

    So [0, b] is the bitset B, the intersection over i of the points with
    alpha_i <= b_i, and the closure starts from P & B.  b_i rounds of
    U |= (U & C_i) << w_i, for C_i the points with alpha_i < b_i, raise
    coordinate i by up to b_i inside B: by induction, after the rounds of
    coordinates 1..i, U holds the points of B that agree with some support
    point alpha <= b past coordinate i and lie above it up to i, which at
    i = n is the closure (the down-closure of `poly._SupportView` the other
    way up)."""
    view = support_view(groth)
    box = view.box
    bound = perms.weight(perms.closed_rothe_diagram(w))
    U = view.bits
    for i, b in enumerate(bound):
        U &= box.at_most(i, b)
    for i, ((step, _), b) in enumerate(zip(box.steps, bound)):
        if b:
            below = box.at_most(i, b - 1)
            for _ in range(b):
                U |= (U & below) << step
    return VectorPoset(box.codes_of(U), view.n)


def check_conjecture_1(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has a strict upper bound
    in the support; equivalently every maximal support element has full
    degree."""
    view = support_view(groth)
    if view.low_maxima:
        witness = decode(min(view.box.codes_of(view.low_maxima)), view.n)
        return Verdict(False, witness=witness, detail="maximal below top degree")
    return PASS


def check_conjecture_2(w: tuple, groth: Poly) -> Verdict:
    """Every support exponent below the top degree has an upper bound in the
    support exactly one degree higher.  Such a bound beta >= alpha with
    |beta| = |alpha| + 1 exceeds alpha in exactly one coordinate by one, so
    it is alpha + e_i for some i."""
    view = support_view(groth)
    if view.uncovered:
        witness = decode(min(view.box.codes_of(view.uncovered)), view.n)
        return Verdict(False, witness=witness, detail="no cover one degree up")
    return PASS


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

    In the view's bitsets (`poly._SupportView`), with P the support and D
    its down-closure, the failing steps are up(P) & D & ~P (`poly._Box.up`),
    the view's `missing`: steps of support points that lie below some point
    of the support, hence below a maximum, and are not in it.  For the
    first of them, beta, the least code, the box named is [alpha, m]: alpha
    the first support point one step below beta, m the first maximum above
    it."""
    view = support_view(groth)
    if view.missing:
        n, high = view.n, view.high
        beta = min(view.box.codes_of(view.missing))
        up = 1 << 8 * n
        steps = {beta - up - (1 << 8 * i) for i in range(n) if beta >> 8 * i & 0xFF}
        alpha = min(s for s in steps if s in groth.terms)
        maxima = view.box.codes_of(view.maximal)
        m = min(m for m in maxima if ((m | high) - beta) & high == high)
        detail = f"missing in box [{decode(alpha, n)}, {decode(m, n)}]"
        return Verdict(False, witness=decode(beta, n), detail=detail)
    return PASS


def check_conjecture_coeff(w: tuple, groth: Poly) -> Verdict:
    """For each top-degree support exponent beta, the coefficients over
    {alpha in supp : alpha <= beta} sum to 1."""
    view = support_view(groth)
    n, high = view.n, view.high
    terms = groth.terms.items()
    bottom = view.degree << 8 * n  # the least code of the top degree
    for beta in sorted(c for c in groth.terms if c >= bottom):
        beta_high = beta | high
        total = sum(c for alpha, c in terms if (beta_high - alpha) & high == high)
        if total != 1:
            return Verdict(False, witness=decode(beta, n), detail=f"coefficient sum {total}")
    return PASS


def check_rajchgot(w: tuple, groth: Poly) -> Verdict:
    """The top degree of the Grothendieck polynomial is |rajcode(w)|, and its
    leading exponent in term order is rajcode(w); a failure names the
    leading exponent.  Index order in the view's box is term order, so the
    leading exponent is the support's highest set bit (`poly._Box`)."""
    view = support_view(groth)
    rc = perms.rajcode(w)
    leading = decode(view.box.code_at(view.bits.bit_length() - 1), view.n)
    if view.degree == sum(rc) and leading == rc:
        return PASS
    return Verdict(False, witness=leading)


NOT_ZERO_ONE = NotApplicable("not a zero-one permutation")


def check_conjecture_mobius(w: tuple, groth: Poly) -> Verdict:
    """On zero-one permutations, the Grothendieck coefficients equal the
    negated Moebius values of the support poset with bottom; NotApplicable
    on any other w.  A term outside P_w, which has no Moebius value, is
    wrong too.  A failure names the first wrong exponent in code order
    (`poly.code`): degree, then term order.

    The check is one comparison of the terms with the polynomial that -mu
    predicts, and the wrong exponents are the codes where the two differ: a
    q of P_w with mu = 0 differs only if it is a term, and a term outside
    P_w always differs, since no stored coefficient is 0."""
    if not perms.is_zero_one(w):
        return NOT_ZERO_ONE
    mu = mobius(w, groth)
    terms = groth.terms
    predicted = {q: -m for q, m in mu.items() if m}
    if predicted == terms:
        return PASS
    q = min(q for q in predicted.keys() | terms.keys() if predicted.get(q, 0) != terms.get(q, 0))
    if q in mu:
        detail = f"coefficient {terms.get(q, 0)} != -mu = {-mu[q]}"
    else:
        detail = f"coefficient {terms[q]} outside P_w"
    return Verdict(False, witness=decode(q, groth.nvars), detail=detail)
