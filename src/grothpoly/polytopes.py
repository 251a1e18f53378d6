"""
Schubert matroids, their base and spanning-set lattice points, paramodular
pairs and generalized-polymatroid lattice machinery, the Grassmannian
partition-sequence construction, and the polytopal checkers.

Subset functions on 2^[n] are stored as dense tuples indexed by bitmask
(bit i-1 set means i is in the subset); n is hard-capped at 12.
"""
from __future__ import annotations

import functools
import itertools
from operator import add, sub
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import perms
from .poly import Poly
from .posets import componentwise_leq
from .verdicts import NotApplicable, Verdict

MAX_SUBSET_N = 12
MAX_SUMSET_N = 8


class SetFunctionPair:
    """A pair (y, z) of integer set functions on 2^[n] with y(0) = z(0) = 0,
    candidate lower/upper bounds of a generalized polymatroid."""

    def __init__(self, y: Sequence[int], z: Sequence[int], n: int):
        if n > MAX_SUBSET_N:
            raise ValueError(f"subset tables refused for n={n} > {MAX_SUBSET_N}")
        if len(y) != 1 << n or len(z) != 1 << n:
            raise ValueError("tables must cover all of 2^[n]")
        if y[0] != 0 or z[0] != 0:
            raise ValueError("y(empty) and z(empty) must be 0")
        self.y = tuple(y)
        self.z = tuple(z)
        self.n = n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFunctionPair)
            and (self.n, self.y, self.z) == (other.n, other.y, other.z)
        )

    def to_text(self) -> str:
        """Dump: one line per subset `bitmask y z`."""
        return "\n".join(
            f"{mask} {self.y[mask]} {self.z[mask]}" for mask in range(1 << self.n)
        )


def schubert_matroid_bases(S: FrozenSet[int], n: int) -> FrozenSet[frozenset]:
    """Bases of SM_n(S), read off `base_points`."""
    return frozenset(
        frozenset(i for i, b in enumerate(p, 1) if b) for p in base_points(S, n)
    )


def matroid_rank(bases: FrozenSet[frozenset], A: FrozenSet[int]) -> int:
    """r(A) = max over bases of #(A intersect B)."""
    A = frozenset(A)
    return max(len(A & B) for B in bases)


def base_points(S: FrozenSet[int], n: int) -> FrozenSet[tuple]:
    """Indicator vectors of the bases of SM_n(S): its spanning sets of size |S|."""
    return frozenset(p for p in spanning_points(S, n) if sum(p) == len(S))


@functools.lru_cache(maxsize=None)
def spanning_points(S: FrozenSet[int], n: int) -> FrozenSet[tuple]:
    """Indicator vectors of the spanning sets of SM_n(S) (supersets of a
    basis), by the Gale count: with S sorted s_1 < ... < s_r, X spans iff
    |X & [s_k]| >= k for every k.  The bases are the r-subsets
    b_1 < ... < b_r of [n] with b_k <= s_k.  A basis B in X puts b_1..b_k in
    X & [s_k]; conversely the count puts the k-th smallest element of X at
    or below s_k, so the r smallest form a basis.  Kept per (S, n): a Rothe
    column of S_n takes at most 2^(n-1) values."""
    s = sorted(S)
    points = itertools.product((0, 1), repeat=n)
    return frozenset(p for p in points if all(sum(p[:sk]) >= k for k, sk in enumerate(s, 1)))


def sumset(A: FrozenSet[tuple], B: FrozenSet[tuple]) -> FrozenSet[tuple]:
    """Deduplicated pointwise sumset {a + b}."""
    dims = set(map(len, A)) | set(map(len, B))
    if len(dims) > 1:
        raise ValueError(f"ambient dimension mismatch: {sorted(dims)}")
    return frozenset(tuple(map(add, a, b)) for a in A for b in B)


def recover_pair(A: FrozenSet[tuple]) -> SetFunctionPair:
    """The unique candidate paramodular pair of conv(A): subset-wise min and
    max of coordinate sums over the point set (convexity makes the finite
    min/max stand in for the polytope).  The sums of all points over a mask
    m are those over m minus its lowest element, plus that coordinate:
    s[m] = s[m & (m - 1)] + a[lowbit m]."""
    A = list(A)
    if not A:
        raise ValueError("cannot recover a pair from an empty point set")
    n = len(A[0])
    columns = list(zip(*A))
    sums = [[0] * len(A)]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums.append(list(map(add, sums[mask & (mask - 1)], columns[low])))
    return SetFunctionPair(list(map(min, sums)), list(map(max, sums)), n)


def paramodular_violation(pair: SetFunctionPair) -> Optional[dict]:
    """The first failing local inequality of the paramodularity test, or None
    when the pair is paramodular.

    Paramodular means z submodular, y supermodular and the cross inequality
    z(I) - y(J) >= z(I - J) - y(J - I) for all I, J.  Sub- and
    supermodularity are local: it suffices that
    z(S+i) + z(S+j) >= z(S+i+j) + z(S) for every S and i != j outside S, and
    the reverse for y.  Given those, write A = I - J, B = J - I, C = I & J;
    the cross inequality reads z(A+C) - z(A) >= y(B+C) - y(B).  The left side
    only shrinks as A grows (z has diminishing returns) and the right side
    only grows with B, so it suffices to check A + B + C = [n], where it
    reads f(A + C) >= f(A) for f(X) = z(X) + y([n] - X): f is monotone, and
    monotonicity is local, f(S) <= f(S+i).

    The tests run in the order z, y, f, each over masks in increasing order,
    then i, then j.  The witness names the test, the mask S, the elements i
    and j (1-based; j is None for f) and both sides of the inequality
    lhs >= rhs that failed."""
    y, z, n = pair.y, pair.z, pair.n
    full = (1 << n) - 1

    def witness(test, S, a, b, lhs, rhs):
        i = (a ^ S).bit_length()
        j = None if b is None else (b ^ S).bit_length()
        return {"test": test, "mask": S, "i": i, "j": j, "lhs": lhs, "rhs": rhs}

    squares = _squares(n)
    for S, a, b in squares:
        if z[a] + z[b] < z[a | b] + z[S]:
            return witness("z submodular", S, a, b, z[a] + z[b], z[a | b] + z[S])
    for S, a, b in squares:
        if y[a | b] + y[S] < y[a] + y[b]:
            return witness("y supermodular", S, a, b, y[a | b] + y[S], y[a] + y[b])
    f = [z[X] + y[full ^ X] for X in range(full + 1)]
    for S, a in _steps(n):
        if f[a] < f[S]:
            return witness("f monotone", S, a, None, f[a], f[S])
    return None


@functools.lru_cache(maxsize=None)
def _steps(n: int) -> Tuple[Tuple[int, int], ...]:
    """(S, S+i) for every mask S and i outside S, by S, then i."""
    return tuple(
        (S, S | 1 << i) for S in range(1 << n) for i in range(n) if not S >> i & 1
    )


@functools.lru_cache(maxsize=None)
def _squares(n: int) -> Tuple[Tuple[int, int, int], ...]:
    """(S, S+i, S+j) for every mask S and i < j outside S, by S, then i, j."""
    return tuple(
        (S, S | 1 << i, S | 1 << j)
        for S in range(1 << n)
        for i in range(n)
        for j in range(i + 1, n)
        if not S & (1 << i | 1 << j)
    )


def is_paramodular(pair: SetFunctionPair) -> bool:
    """y supermodular, z submodular, and the cross inequality
    z(I) - y(J) >= z(I - J) - y(J - I), by the local tests of
    `paramodular_violation` in O(n^2 2^n) instead of a scan over all
    O(4^n) subset pairs."""
    return paramodular_violation(pair) is None


def lattice_points_of_pair(pair: SetFunctionPair) -> FrozenSet[tuple]:
    """All integer vectors t satisfying every subset inequality
    y(I) <= sum_{i in I} t_i <= z(I).

    A depth-first search sets the coordinates one at a time.  When the k-th
    coordinate is set, every mask whose last element (in that order) is the
    k-th has all its coordinates fixed, and those masks are exactly the
    constraints not yet checked; each bounds the new coordinate given the
    sum over the rest of the mask, so the search tries only the values that
    satisfy all of them.  The singleton mask is among them, so the search is
    finite, and every leaf is a point.

    A node at depth k checks 2^k masks, so the deep levels dominate.  The
    coordinates go in order of increasing singleton range z(i) - y(i), which
    keeps the number of distinct prefixes at those levels small: on the
    supports of S_7 it cuts the work 2.7-fold against x_1 first."""
    n = pair.n
    if n == 0:
        return frozenset({()})
    order = sorted(range(n), key=lambda i: pair.z[1 << i] - pair.y[1 << i])
    # masks[m]: the subset, as a mask of the pair, whose bit k is order[k].
    masks = [0]
    for i in order:
        masks += [m | 1 << i for m in masks]
    # The masks whose last element is k: positions 2^k .. 2^(k+1) - 1.
    ys = [[pair.y[m] for m in masks[1 << k:2 << k]] for k in range(n)]
    zs = [[pair.z[m] for m in masks[1 << k:2 << k]] for k in range(n)]
    points = []

    def visit(k: int, sums: list, prefix: tuple) -> None:
        # sums[m]: the coordinate sum of the prefix over each mask m < 2^k.
        lo = max(map(sub, ys[k], sums))
        hi = min(map(sub, zs[k], sums))
        if k == n - 1:
            points.extend(prefix + (t,) for t in range(lo, hi + 1))
            return
        for t in range(lo, hi + 1):
            visit(k + 1, sums + [s + t for s in sums], prefix + (t,))

    visit(0, [0], ())
    position = [order.index(i) for i in range(n)]
    return frozenset(tuple(p[k] for k in position) for p in points)


def check_conjecture_4(w: tuple, groth: Poly) -> Verdict:
    """The support's recovered pair is paramodular and reproduces the support
    as its lattice points.  Together these are equivalent to saturation plus
    the Newton polytope being a generalized polymatroid: the recovered pair
    is the only candidate, and an integral paramodular pair cuts out an
    integral polytope."""
    supp = groth.support()
    pair = recover_pair(supp)
    if not is_paramodular(pair):
        return Verdict(
            False, witness=paramodular_violation(pair), detail="recovered pair not paramodular"
        )
    points = lattice_points_of_pair(pair)
    if points != supp:
        diff = sorted(points ^ supp)
        return Verdict(False, witness=diff[0], detail="lattice points != support")
    return Verdict(True)


def _rothe_columns(w: tuple) -> List[FrozenSet[int]]:
    D = perms.rothe_diagram(w)
    return [D.column(j) for j in range(1, len(w) + 1)]


def _pad(v: tuple, n: int) -> tuple:
    return tuple(v) + (0,) * (n - len(v))


@functools.lru_cache(maxsize=1)
def spanning_sumset(w: tuple) -> FrozenSet[tuple]:
    """Iterated sumset of the spanning-point sets of the column Schubert
    matroids SM_{d_j}(D_j), d_j = max D_j, zero-appended into dimension n,
    over the nonempty Rothe columns D_j of w (an empty column adds only the
    zero vector; column n is empty).  Kept for the last permutation, so
    superset, fms and converse share one build."""
    n = len(w)
    if n > MAX_SUMSET_N:
        raise ValueError(f"sumset refused for n={n} > {MAX_SUMSET_N}")
    total = frozenset({(0,) * n})
    for col in filter(None, _rothe_columns(w)):
        total = sumset(total, {_pad(p, n) for p in spanning_points(col, max(col))})
    return total


def base_sumset(w: tuple) -> FrozenSet[tuple]:
    """Iterated sumset of the base-point sets of the column Schubert
    matroids SM_n(D_j): the points of `spanning_sumset(w)` of degree l(w).

    Proof: a basis of SM_n(D_j) has b_k <= s_k <= d_j, so it lies in [d_j]
    and is a basis of SM_{d_j}(D_j).  A spanning set of SM_{d_j}(D_j) has at
    least |D_j| elements, and exactly |D_j| only when it is a basis.  The
    columns partition the Rothe diagram, so the |D_j| sum to l(w): a sum of
    spanning sets has degree l(w) iff every part is a basis."""
    length = perms.length(w)
    return frozenset(p for p in spanning_sumset(w) if sum(p) == length)


def check_superset(w: tuple, groth: Poly) -> Verdict:
    """The support sits inside the spanning-set sumset; also reports whether
    the two lattice sets are equal."""
    supp = groth.support()
    total = spanning_sumset(w)
    missing = sorted(supp - total)
    if missing:
        return Verdict(False, witness=missing[0], detail="support point outside sumset")
    return Verdict(True, info={"equality": supp == total})


def check_fms(w: tuple, schub: Poly) -> Verdict:
    """The Schubert support equals the iterated base-point sumset over the
    Rothe columns."""
    supp = schub.support()
    total = base_sumset(w)
    if supp != total:
        diff = sorted(supp ^ total)
        return Verdict(False, witness=diff[0], detail="support != base sumset")
    return Verdict(True)


def check_prop_converse(w: tuple, groth: Poly) -> Verdict:
    """Degree saturation iff sumset equality.  A disagreement is reportable
    data (the biconditional is conditional on open conjectures), so the
    verdict records both sides."""
    closure = perms.upper_closure(perms.rothe_diagram(w))
    degree_side = groth.degree() == len(closure.boxes)
    polytope_side = groth.support() == spanning_sumset(w)
    ok = degree_side == polytope_side
    return Verdict(
        ok,
        witness=None if ok else (degree_side, polytope_side),
        info={"degree_saturated": degree_side, "sumset_equality": polytope_side},
    )


def decompose_support_point(w: tuple, alpha: tuple, groth: Poly, schub: Poly) -> List[tuple]:
    """Write alpha as a sum of one spanning-set indicator per Rothe column
    (zero for empty columns), by the marked-matrix peeling construction:
    descend from alpha to a Schubert support point beta, decompose beta into
    column bases, then erase surplus closure boxes row by row."""
    n = len(w)
    supp_g = groth.support()
    if alpha not in supp_g:
        raise ValueError(f"{alpha} is not in the support")
    # Walk down one degree at a time until hitting the Schubert support.
    lw = perms.length(w)
    beta = alpha
    while sum(beta) > lw:
        step = next(
            (
                b
                for b in supp_g
                if sum(b) == sum(beta) - 1 and componentwise_leq(b, beta)
            ),
            None,
        )
        if step is None:
            raise AssertionError(f"no one-step descent below {beta} in supp")
        beta = step
    columns = _rothe_columns(w)
    parts = _basis_decomposition(beta, columns, n)
    if parts is None:
        raise AssertionError(f"no column-basis decomposition of {beta} exists")
    # matrix[j][i0]: the upper closure of column j, minus the erased boxes.
    matrix = [[int(i <= max(col, default=0)) for i in range(1, n + 1)] for col in columns]
    for i0 in range(n):
        surplus = sum(row[i0] for row in matrix) - alpha[i0]
        for j in range(n):
            if surplus == 0:
                break
            if matrix[j][i0] == 1 and parts[j][i0] == 0:
                matrix[j][i0] = 0
                surplus -= 1
        if surplus != 0:
            raise AssertionError(f"row {i0 + 1} cannot shed {surplus} more boxes")
    eps = [tuple(col) for col in matrix]
    assert tuple(map(sum, zip(*eps))) == alpha
    return eps


def _basis_decomposition(
    beta: tuple, columns: List[FrozenSet[int]], n: int
) -> Optional[List[tuple]]:
    """Backtracking search for beta = sum of basis indicators, one per column."""
    bases_per_col = [sorted(base_points(col, n), reverse=True) for col in columns]

    def recurse(j: int, remaining: tuple) -> Optional[List[tuple]]:
        if j == len(bases_per_col):
            return [] if not any(remaining) else None
        for point in bases_per_col[j]:
            if all(p <= r for p, r in zip(point, remaining)):
                rest = recurse(j + 1, tuple(r - p for r, p in zip(remaining, point)))
                if rest is not None:
                    return [point] + rest
        return None

    return recurse(0, beta)


def grassmannian_par(lam: Sequence[int]) -> List[tuple]:
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
    shape = perms.grassmannian_shape(w)
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
        actual = set(groth.graded_component(lw + j).support())
        if expected != actual:
            diff = sorted(expected ^ actual)
            return Verdict(False, witness=diff[0], detail=f"mismatch at grade {lw + j}")
    return Verdict(True)


def grassmannian_pair(lam: Sequence[int], muN: Sequence[int], n: int) -> SetFunctionPair:
    """The explicit pair: y(I) sums the #I smallest parts of lam, z(I) the #I
    largest parts of the final partition (both zero-padded to length n)."""
    lam_sorted = sorted(_pad(tuple(lam), n))
    mu_sorted = sorted(_pad(tuple(muN), n), reverse=True)
    y = [0] * (1 << n)
    z = [0] * (1 << n)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        y[mask] = sum(lam_sorted[:k])
        z[mask] = sum(mu_sorted[:k])
    return SetFunctionPair(y, z, n)


def truncate_support(supp: FrozenSet[tuple], r: int) -> FrozenSet[tuple]:
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
    shape = perms.grassmannian_shape(w)
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


def lattice_set_text(A: FrozenSet[tuple]) -> str:
    """Debug dump: one comma-separated vector per line, in term order."""
    return "\n".join(",".join(map(str, v)) for v in sorted(A, key=lambda v: v[::-1]))
