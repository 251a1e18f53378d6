"""Reference definitions shared by several test modules.

The paper proves its conjectures for Grassmannian and fireworks
permutations; these are those proven cases (Escobar-Yong's graded supports
and the explicit lambda/mu pair), the permutation classes they cover, the
few polynomial operations the tests need and the engine does not, and the
kernels the engine's code-keyed ones replaced: the divided differences and
the pipe-dream transfer matrix on exponent tuples, the pattern test by
standardized subsequences, the pair recovered from a set of exponent tuples
and the Rothe diagram as a set of boxes, the oracles they are compared
with.
"""
import itertools
import operator
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from grothpoly import perms, pipedreams, poly, polytopes
from grothpoly.poly import Poly, code, decode
from grothpoly.polytopes import MAX_SPAN, SetFunctionPair, is_paramodular
from grothpoly.verdicts import NotApplicable, Verdict


# Permutations.


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def descents(w: tuple) -> list:
    return [j for j in range(1, len(w)) if w[j - 1] > w[j]]


def decreasing_runs(w: tuple) -> list:
    """Maximal decreasing runs of w, left to right."""
    runs = []
    current = [w[0]]
    for v in w[1:]:
        if v < current[-1]:
            current.append(v)
        else:
            runs.append(current)
            current = [v]
    runs.append(current)
    return runs


def ranking(seq: Iterable[int]) -> tuple:
    """The standardization of seq: each entry replaced by its rank, from 0."""
    seq = tuple(seq)
    order = sorted(seq)
    return tuple(order.index(v) for v in seq)


# The zero-one patterns standardized by `ranking`, one set per length.
_ZERO_ONE_RANKS = {
    k: frozenset(ranking(p) for p in perms.ZERO_ONE_PATTERNS if len(p) == k)
    for k in sorted({len(p) for p in perms.ZERO_ONE_PATTERNS})
}


def is_zero_one_ranking(w: tuple) -> bool:
    """`perms.is_zero_one` as it was: each subsequence standardized once and
    looked up among the patterns of its length."""
    return not any(
        ranking(sub) in ranks
        for k, ranks in _ZERO_ONE_RANKS.items()
        for sub in itertools.combinations(w, k)
    )


def rothe_boxes(w: tuple) -> FrozenSet[tuple]:
    """The Rothe diagram D(w) = {(i,j) : i < w^{-1}(j) and j < w(i)} as a
    set of grid boxes (row, column), both 1-based: the definition
    `perms.rothe_diagram` stores by column."""
    n = len(w)
    inv = perms.inverse(w)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i < inv[j - 1] and j < w[i - 1]
    )


def is_fireworks(w: tuple) -> bool:
    """True iff the initial elements of the maximal decreasing runs increase."""
    initials = [run[0] for run in decreasing_runs(w)]
    return all(a < b for a, b in zip(initials, initials[1:]))


def rajcode_fireworks(w: tuple) -> tuple:
    """Rajchgot code of a fireworks permutation via the descent-count recursion:
    r_n = 0 and r_i = r_{i+1} + [w(i) > w(i+1)].
    """
    if not is_fireworks(w):
        raise ValueError(f"{w} is not a fireworks permutation")
    n = len(w)
    r = [0] * n
    for i in range(n - 2, -1, -1):
        r[i] = r[i + 1] + (1 if w[i] > w[i + 1] else 0)
    return tuple(r)


def grassmannian_shape(w: tuple) -> Optional[tuple]:
    """If w has exactly one descent at position r, return (r, lambda) with
    lambda = (w(r)-r, ..., w(2)-2, w(1)-1), exactly r parts (zeros kept).
    Otherwise return None.
    """
    des = descents(w)
    if len(des) != 1:
        return None
    r = des[0]
    lam = tuple(w[i - 1] - i for i in range(r, 0, -1))
    return r, lam


# Polynomials.


def pad(v: Sequence[int], n: int) -> tuple:
    """v zero-appended to length n."""
    return tuple(v) + (0,) * (n - len(v))


def term_key(expo: tuple) -> tuple:
    """Sort key for the canonical term order: compare the exponent of x_n
    first, then x_{n-1}, and so on.  This is a term order with
    x_1 < x_2 < ... < x_n."""
    return expo[::-1]


def poly_of(terms: dict, n: int) -> Poly:
    """The polynomial with these terms, keyed by exponent vector."""
    return Poly({code(e): c for e, c in terms.items()}, n)


def vector_terms(f: Poly) -> dict:
    """The terms of f, keyed by exponent vector."""
    return {decode(e, f.nvars): c for e, c in f.terms.items()}


def graded_component(f: Poly, d: int) -> Poly:
    return poly_of({e: c for e, c in vector_terms(f).items() if sum(e) == d}, f.nvars)


def add(f: Poly, g: Poly) -> Poly:
    if f.nvars != g.nvars:
        raise ValueError(f"nvars mismatch: {f.nvars} and {g.nvars}")
    out = dict(f.terms)
    for expo, coeff in g.terms.items():
        c = out.get(expo, 0) + coeff
        if c:
            out[expo] = c
        else:
            out.pop(expo, None)
    return Poly(out, f.nvars)


def divided_difference(f: Poly, j: int) -> Poly:
    """The operator (f - s_j.f) / (x_j - x_{j+1}), the 𝔖 step of the
    recursion whose 𝔊 step the walk applies: the engine's closed form
    (`poly._closed_form`) with the plain part alone, as `poly.build_table`
    applies it for 𝔖."""
    return poly._closed_form(f, j, poly._PLAIN)


# The Grassmannian case: Escobar-Yong's graded supports and the explicit pair.


def grassmannian_par(lam: Sequence[int]) -> list:
    """The maximal partition sequence grown from lam: each step adds a box to
    the northmost row r that keeps a partition while row r has gained fewer
    than r - 1 boxes.  Row counts are fixed; no new rows are ever created."""
    lam = tuple(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(a < 0 for a in lam):
        raise ValueError(f"{lam} is not a partition")
    seq = [lam]
    current = list(lam)
    while True:
        row = next(
            (
                i
                for i in range(len(lam))
                if (i == 0 or current[i] < current[i - 1])
                and current[i] - lam[i] < i
            ),
            None,
        )
        if row is None:
            break
        current[row] += 1
        seq.append(tuple(current))
    return seq


def dominance_leq(rho: Sequence[int], nu: Sequence[int]) -> bool:
    """Dominance order: prefix sums compare <= and the totals agree."""
    if len(rho) != len(nu):
        raise ValueError("dominance comparison needs equal lengths")
    s_r = s_n = 0
    for a, b in zip(rho, nu):
        s_r += a
        s_n += b
        if s_r > s_n:
            return False
    return s_r == s_n


def dominance_sorted_leq(alpha: Sequence[int], mu: Sequence[int]) -> bool:
    """Dominance after sorting alpha descendingly.  The raw entrywise-prefix
    reading admits vectors like (0,0,2) against mu=(1,1,0) that no symmetric
    polynomial support contains; sorting first matches the subset-sum bounds
    that actually cut out these supports."""
    return dominance_leq(sorted(alpha, reverse=True), list(mu))


def _dominated_vectors(mu: tuple, r: int, n: int):
    """Nonnegative vectors of Z^n supported on the first r coordinates whose
    descending sort is dominated by mu (an r-part partition)."""
    mu = tuple(mu)
    total = sum(mu)
    cap = mu[0] if mu else 0

    def recurse(i: int, running: int, partial: list):
        if i == r:
            if running == total and dominance_sorted_leq(partial, mu):
                yield tuple(partial) + (0,) * (n - r)
            return
        for v in range(min(cap, total - running) + 1):
            partial.append(v)
            yield from recurse(i + 1, running + v, partial)
            partial.pop()

    yield from recurse(0, 0, [])


def check_escobar_yong(w: tuple, groth: Poly) -> Verdict:
    """Graded supports of a Grassmannian Grothendieck polynomial match the
    dominance-order ideals of the grown partition sequence (on the first r
    coordinates; only x_1..x_r occur), and the degree is the size of the
    final partition.  NotApplicable on a non-Grassmannian w."""
    shape = grassmannian_shape(w)
    if shape is None:
        return NotApplicable("not Grassmannian")
    r, lam = shape
    n = len(w)
    seq = grassmannian_par(lam)
    lw = perms.length(w)
    if groth.degree() != sum(seq[-1]):
        return Verdict(False, detail=f"degree {groth.degree()} != |mu^(N)|")
    for j, mu in enumerate(seq):
        expected = set(_dominated_vectors(mu, r, n))
        actual = set(graded_component(groth, lw + j).support())
        if expected != actual:
            diff = sorted(expected ^ actual)
            return Verdict(False, witness=diff[0], detail=f"mismatch at grade {lw + j}")
    return Verdict(True)


def grassmannian_pair(lam: Sequence[int], muN: Sequence[int], n: int) -> SetFunctionPair:
    """The explicit pair: y(I) sums the #I smallest parts of lam, z(I) the #I
    largest parts of the final partition (both zero-padded to length n)."""
    lam_sorted = sorted(pad(lam, n))
    mu_sorted = sorted(pad(muN, n), reverse=True)
    y = [0] * (1 << n)
    z = [0] * (1 << n)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        y[mask] = sum(lam_sorted[:k])
        z[mask] = sum(mu_sorted[:k])
    return SetFunctionPair(y, z, n)


def truncate_support(supp: frozenset, r: int) -> frozenset:
    """Drop trailing coordinates beyond r, which must all be zero (a
    Grassmannian polynomial with descent r only uses x_1..x_r)."""
    for alpha in supp:
        if any(alpha[r:]):
            raise ValueError(f"{alpha} has a nonzero entry past coordinate {r}")
    return frozenset(alpha[:r] for alpha in supp)


def check_grassmannian_pair(w: tuple, groth: Poly) -> Verdict:
    """The explicit lambda/mu pair is paramodular and coincides, as complete
    tables on 2^[r], with the pair recovered from the support.
    NotApplicable on a non-Grassmannian w."""
    shape = grassmannian_shape(w)
    if shape is None:
        return NotApplicable("not Grassmannian")
    r, lam = shape
    seq = grassmannian_par(lam)
    pair = grassmannian_pair(lam, seq[-1], r)
    if not is_paramodular(pair):
        return Verdict(False, detail="explicit pair not paramodular")
    recovered = recover_pair_points(truncate_support(groth.support(), r))
    if pair != recovered:
        return Verdict(False, detail="explicit pair != recovered pair")
    return Verdict(True)


def recover_pair_points(A: FrozenSet[tuple]) -> SetFunctionPair:
    """The pair of `polytopes.recover_pair` from any finite set of integer
    vectors: subset-wise min and max of coordinate sums over the points.

    Packed by masks: after translating each coordinate by its minimum
    low_i, a point p becomes one int with one byte lane per mask m, holding
    the sum of p_i - low_i over m: the sum of (p_i - low_i) R_i, where R_i
    has lane m equal to 1 iff i is in m.  A lane is at most the sum of the
    ranges max_i - low_i, which must be at most MAX_SPAN (a larger sum is
    refused with a ValueError), so it never reaches the lane's top bit.
    y and z are then the lane-wise min and max over the points, each
    comparison one subtract (`polytopes._at_least`), plus the sum of low_i
    over m.  The translation is one subtract of L, the sum of low_i R_i,
    from the sum of p_i R_i, since both are linear in p."""
    A = list(A)
    if not A:
        raise ValueError("cannot recover a pair from an empty point set")
    n = len(A[0])
    columns = list(zip(*A))
    lows = list(map(min, columns))
    spread = sum(map(max, columns)) - sum(lows)
    if spread > MAX_SPAN:
        raise ValueError(f"coordinate ranges sum to {spread}, too large for the packed columns")
    _, steps, high = polytopes._avoiding(n)
    # R_i: the lanes that do not avoid i, their top bit moved to the bottom.
    ones = [(high ^ lanes) >> 7 for _, lanes in steps]
    offsets = [0]
    for low in lows:
        offsets += [o + low for o in offsets]
    base = sum(map(operator.mul, lows, ones))
    packed = [sum(map(operator.mul, p, ones)) - base for p in A]
    y = z = packed[0]
    for p in packed[1:]:
        ge = polytopes._at_least(p, y, high)
        y = p ^ (y ^ p) & ge - (ge >> 7)
        ge = polytopes._at_least(p, z, high)
        z = z ^ (z ^ p) & ge - (ge >> 7)
    y = map(operator.add, y.to_bytes(len(offsets), "little"), offsets)
    z = map(operator.add, z.to_bytes(len(offsets), "little"), offsets)
    return SetFunctionPair(y, z, n)


# The tuple kernels: the engine's operator and transfer matrix as they were
# written on exponent tuples, before every polynomial was keyed by its code.

# The (lift, sign) parts of the two operators, as in `grothpoly.poly`.
PLAIN = ((0, 1),)
ISOBARIC = ((0, 1), (1, -1))


def closed_form_vectors(terms: Dict[tuple, int], j: int, parts: tuple) -> Dict[tuple, int]:
    """The sum of sign * divided_difference(x_{j+1}^lift f, j) over the
    (lift, sign) pairs in parts, f given by its terms keyed by exponent
    tuple: with a, b the exponents of x_j, x_{j+1}, the divided difference
    of x_j^a x_{j+1}^b is the sum of x_j^p x_{j+1}^{a+b-1-p} over
    min(a, b) <= p < max(a, b), negated when a < b."""
    j0 = j - 1
    out: Dict[tuple, int] = {}
    for expo, coeff in terms.items():
        head, tail = expo[:j0], expo[j0 + 2 :]
        for lift, sign in parts:
            a, b = expo[j0], expo[j0 + 1] + lift
            c = sign * coeff if a > b else -sign * coeff
            for p in range(min(a, b), max(a, b)):
                e = head + (p, a + b - 1 - p) + tail
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class _TimesVectors(dict):
    """e -> the exponent tuple of x_i x^e, one shared tuple per vector."""

    def __init__(self, i: int, vectors: Dict[tuple, tuple]):
        super().__init__()
        self.i, self.vectors = i, vectors

    def __missing__(self, e: tuple) -> tuple:
        up = e[: self.i - 1] + (e[self.i - 1] + 1,) + e[self.i :]
        self[e] = self.vectors.setdefault(up, up)
        return self[e]


def pd_polynomial_all_vectors(n: int, mode: str) -> Dict[tuple, Dict[tuple, int]]:
    """The pipe-dream transfer matrix of `pipedreams.pd_polynomial_all` on
    exponent tuples: w -> the terms of 𝔖_w (mode="schubert") or 𝔊_w
    (mode="grothendieck"), keyed by exponent tuple."""
    vectors: Dict[tuple, tuple] = {}
    times = {i: _TimesVectors(i, vectors) for i in range(1, n)}
    states = {tuple(range(1, n + 1)): {(0,) * n: 1}}
    for i, j in sorted(pipedreams.staircase_cells(n), key=lambda c: (c[0], -c[1])):
        x_i, k, before = times[i], i + j - 1, list(states.items())
        for u, terms in before:
            if u[k - 1] > u[k] and mode == "grothendieck":
                for e, c in [(x_i[e], c) for e, c in terms.items()]:
                    terms[e] = terms.get(e, 0) - c
        for u, terms in before:
            if u[k - 1] < u[k]:
                target = states.setdefault(u[: k - 1] + (u[k], u[k - 1]) + u[k + 1 :], {})
                for e, c in terms.items():
                    e = x_i[e]
                    target[e] = target.get(e, 0) + c
    return {w: states[w] for w in perms.all_perms(n)}
