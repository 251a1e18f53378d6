"""Reference definitions shared by several test modules.

The paper proves its conjectures for Grassmannian and fireworks
permutations; these are those proven cases (Escobar-Yong's graded supports
and the explicit lambda/mu pair), the permutation classes they cover, and
the few polynomial operations the tests need and the engine does not.
"""
from typing import Optional, Sequence

from grothpoly import perms
from grothpoly.poly import Poly
from grothpoly.polytopes import SetFunctionPair, is_paramodular, recover_pair
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


def graded_component(f: Poly, d: int) -> Poly:
    return Poly({e: c for e, c in f.terms.items() if sum(e) == d}, f.nvars)


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
    recovered = recover_pair(truncate_support(groth.support(), r))
    if pair != recovered:
        return Verdict(False, detail="explicit pair != recovered pair")
    return Verdict(True)
