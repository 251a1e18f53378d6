"""
Schubert matroids, their spanning-set lattice points and sumsets, paramodular
pairs and generalized-polymatroid lattice machinery, and the polytopal
checkers.

Subset functions on 2^[n] are stored as dense tuples indexed by bitmask
(bit i-1 set means i is in the subset); n is hard-capped at 12.
"""
from __future__ import annotations

import functools
import itertools
from operator import add, itemgetter
from typing import FrozenSet, List, Optional, Sequence, Tuple

from . import perms
from .poly import Poly, codes, decode
from .verdicts import Verdict

MAX_SUBSET_N = 12
MAX_SUMSET_N = 8


class SetFunctionPair:
    """A pair (y, z) of integer set functions on 2^[n] with y(0) = z(0) = 0,
    candidate lower/upper bounds of a generalized polymatroid."""

    def __init__(self, y: Sequence[int], z: Sequence[int], n: int):
        if n > MAX_SUBSET_N:
            raise ValueError(f"subset tables refused for n={n} > {MAX_SUBSET_N}")
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


def spanning_points(S: FrozenSet[int], n: int) -> FrozenSet[tuple]:
    """Indicator vectors of the spanning sets of SM_n(S) (supersets of a
    basis), by the Gale count: with S sorted s_1 < ... < s_r, X spans iff
    |X & [s_k]| >= k for every k.  The bases are the r-subsets
    b_1 < ... < b_r of [n] with b_k <= s_k.  A basis B in X puts b_1..b_k in
    X & [s_k]; conversely the count puts the k-th smallest element of X at
    or below s_k, so the r smallest form a basis."""
    s = sorted(S)
    points = itertools.product((0, 1), repeat=n)
    return frozenset(p for p in points if all(sum(p[:sk]) >= k for k, sk in enumerate(s, 1)))


def recover_pair(A: FrozenSet[tuple]) -> SetFunctionPair:
    """The unique candidate paramodular pair of conv(A): subset-wise min and
    max of coordinate sums over the point set (convexity makes the finite
    min/max stand in for the polytope).

    Packed by columns: after translating each coordinate by its minimum
    low_i, column i becomes one int with one byte per point.  The sums of
    all points over a mask are then one big-int add each, s[m + i] = s[m] +
    col[i] for the masks m below bit i.  A byte of s[m] is at most the sum
    of the ranges max_i - low_i, so no byte carries into the next while
    that sum is below 256; a larger one is refused with a ValueError.  y(m)
    and z(m) are the min and max byte of s[m], plus the sum of low_i over
    m."""
    A = list(A)
    if not A:
        raise ValueError("cannot recover a pair from an empty point set")
    columns = list(zip(*A))
    lows = list(map(min, columns))
    spread = sum(map(max, columns)) - sum(lows)
    if spread >= 256:
        raise ValueError(
            f"coordinate ranges sum to {spread}, too large for the packed columns (< 256)"
        )
    sums, offsets = [0], [0]
    for col, low in zip(columns, lows):
        packed = int.from_bytes(bytes(map((-low).__add__, col)), "little")
        sums += [s + packed for s in sums]
        offsets += [o + low for o in offsets]
    # The set of each row's bytes first: min and max then scan a few values.
    rows = map(int.to_bytes, sums, itertools.repeat(len(A)), itertools.repeat("little"))
    rows = list(map(set, rows))
    y = list(map(add, map(min, rows), offsets))
    z = list(map(add, map(max, rows), offsets))
    return SetFunctionPair(y, z, len(A[0]))


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


class _LatticeSearch:
    """A depth-first search for the integer vectors t satisfying every subset
    inequality y(I) <= sum_{i in I} t_i <= z(I) of a pair.

    It sets the coordinates one at a time.  When the k-th coordinate is set,
    every mask whose last element (in that order) is the k-th has all its
    coordinates fixed, and those masks are exactly the constraints not yet
    checked; each bounds the new coordinate given the sum over the rest of
    the mask, so the search tries only the values that satisfy all of them.
    The singleton mask is among them, so the search is finite.  The
    coordinates go in order of increasing singleton range z(i) - y(i), which
    keeps the number of distinct prefixes at the deep levels small: on the
    supports of S_7 it cuts the work 2.7-fold against x_1 first.

    Packed: a node at depth k is one int P with one byte per mask m < 2^k,
    the prefix's coordinate sum over m plus the bias B = -lo, where [lo, hi]
    spans every value of y and z.  The child that sets coordinate k to t is
    P | (P + t R_k) << 8 * 2^k, with R_k the ones in 2^k bytes.  Y_k and Z_k
    hold y and z of the masks whose last element is k, one byte per m, plus
    D + B, with D = hi - lo; then byte m of Y_k - P is y(m + k) - sum(m) + D.
    A node's sums lie in [y(m), z(m)], since its parent chose t within
    them, so every byte of P lies in [0, D] and every byte of Y_k - P and
    Z_k - P in [0, 2 D]: none borrows while D <= 127, and a wider pair is
    refused with a ValueError.  The bounds on coordinate k are then
    max((Y_k - P).to_bytes(2^k)) - D and min((Z_k - P).to_bytes(2^k)) - D,
    a fixed number of big-int operations per node."""

    def __init__(self, pair: SetFunctionPair):
        n = self.n = pair.n
        self.pair = pair
        if n == 0:
            return  # the one point () needs no search
        lo = min(min(pair.y), min(pair.z))
        span = max(max(pair.y), max(pair.z)) - lo
        if span > 127:
            raise ValueError(f"pair values span {span}, too wide for the packed search (< 128)")
        self.span, self.bias = span, -lo
        self.order = tuple(sorted(range(n), key=lambda i: pair.z[1 << i] - pair.y[1 << i]))
        pick = _search_masks(self.order)

        def packed(table):
            # Y_k: the masks whose last element is k, positions 2^k .. 2^(k+1) - 1.
            row = bytes(map((span - lo).__add__, pick(table)))
            return [int.from_bytes(row[1 << k:2 << k], "little") for k in range(n)]

        self.ys, self.zs = packed(pair.y), packed(pair.z)
        # R_k: 2^k bytes equal to 1, for the levels the search expands.
        self.ones = [((1 << (8 << k)) - 1) // 255 for k in range(n - 2)]

    def leaves(self):
        """(P, t, lo, hi) for each node P at depth n - 2, each value t of
        coordinate n - 2 under it, and the values lo..hi, lo <= hi, that the
        last coordinate then takes; n >= 2.

        The last level is not searched: with L and H the low and high halves
        of Y_{n-1} (the masks without and with coordinate n - 2), the last
        coordinate is at least max((L - P).to_bytes) - D and
        max((H - P).to_bytes) - D - t, and Z_{n-1} bounds it above the same
        way, so four byte extrema at P give the range for every t."""
        n, span, ys, zs, ones = self.n, self.span, self.ys, self.zs, self.ones
        depth = n - 2
        half = 8 << depth
        low = (1 << half) - 1
        y_low, y_high = ys[n - 1] & low, ys[n - 1] >> half
        z_low, z_high = zs[n - 1] & low, zs[n - 1] >> half
        stack = [(0, self.bias)]
        while stack:
            k, P = stack.pop()
            width = 1 << k
            lo = max((ys[k] - P).to_bytes(width, "little")) - span
            hi = min((zs[k] - P).to_bytes(width, "little")) - span
            if lo > hi:
                continue
            if k == depth:
                a = max((y_low - P).to_bytes(width, "little")) - span
                b = max((y_high - P).to_bytes(width, "little")) - span
                c = min((z_low - P).to_bytes(width, "little")) - span
                d = min((z_high - P).to_bytes(width, "little")) - span
                for t in range(lo, hi + 1):
                    u, v = max(a, b - t), min(c, d - t)
                    if u <= v:
                        yield P, t, u, v
                continue
            shift = 8 * width
            step = ones[k]
            Q = P + lo * step
            for _ in range(lo, hi + 1):
                stack.append((k + 1, P | Q << shift))
                Q += step

    def count(self, limit: int) -> int:
        """The number of lattice points, or any number above `limit` once
        the count passes it."""
        if self.n < 2:
            return len(self.points())
        total = 0
        for _, _, lo, hi in self.leaves():
            total += hi - lo + 1
            if total > limit:
                break
        return total

    def points(self) -> FrozenSet[tuple]:
        """Every lattice point.  Byte 2^j of a node is coordinate order[j]
        plus the bias."""
        n, bias = self.n, self.bias
        if n == 0:
            return frozenset({()})
        if n == 1:
            return frozenset((t,) for t in range(self.pair.y[1], self.pair.z[1] + 1))
        position = [self.order.index(i) for i in range(n)]
        out = []
        for P, t, lo, hi in self.leaves():
            prefix = [(P >> (8 << j) & 0xFF) - bias for j in range(n - 2)] + [t]
            for u in range(lo, hi + 1):
                p = prefix + [u]
                out.append(tuple(p[k] for k in position))
        return frozenset(out)


@functools.lru_cache(maxsize=None)
def _search_masks(order: Tuple[int, ...]) -> itemgetter:
    """Picks the entries of a subset table in search order: entry m is the
    subset whose bit k is order[k]."""
    masks = [0]
    for i in order:
        masks += [m | 1 << i for m in masks]
    return itemgetter(*masks)


def lattice_points_of_pair(pair: SetFunctionPair) -> FrozenSet[tuple]:
    """All integer vectors t satisfying every subset inequality
    y(I) <= sum_{i in I} t_i <= z(I), by the packed search of
    `_LatticeSearch`."""
    return _LatticeSearch(pair).points()


def check_conjecture_4(w: tuple, groth: Poly) -> Verdict:
    """The support's recovered pair is paramodular and reproduces the support
    as its lattice points.  Together these are equivalent to saturation plus
    the Newton polytope being a generalized polymatroid: the recovered pair
    is the only candidate, and an integral paramodular pair cuts out an
    integral polytope.

    Every support point satisfies the pair it was recovered from, so the
    lattice points contain the support, and equal it iff there are |supp|
    of them: the search counts and stops past |supp|, and enumerates only
    to name the witness, the first point in sorted order outside the
    support."""
    supp = groth.support()
    pair = recover_pair(supp)
    if not is_paramodular(pair):
        return Verdict(
            False, witness=paramodular_violation(pair), detail="recovered pair not paramodular"
        )
    if _LatticeSearch(pair).count(len(supp)) != len(supp):
        diff = sorted(lattice_points_of_pair(pair) ^ supp)
        return Verdict(False, witness=diff[0], detail="lattice points != support")
    return Verdict(True)


def _rothe_columns(w: tuple) -> List[FrozenSet[int]]:
    D = perms.rothe_diagram(w)
    return [D.column(j) for j in range(1, len(w) + 1)]


def _pad(v: tuple, n: int) -> tuple:
    return tuple(v) + (0,) * (n - len(v))


@functools.lru_cache(maxsize=None)
def _spanning_codes(S: FrozenSet[int], n: int) -> FrozenSet[int]:
    """The codes (`poly.codes`) of the spanning points of SM_{max S}(S),
    zero-appended into dimension n.  Kept per (S, n): a Rothe column of S_n
    takes at most 2^(n-1) values."""
    return frozenset(codes[_pad(p, n)] for p in spanning_points(S, max(S)))


@functools.lru_cache(maxsize=1)
def spanning_sumset(w: tuple) -> FrozenSet[int]:
    """Iterated sumset of the spanning-point sets of the column Schubert
    matroids SM_{d_j}(D_j), d_j = max D_j, zero-appended into dimension n,
    over the nonempty Rothe columns D_j of w (an empty column adds only the
    zero vector; column n is empty), as the set of its codes
    (`poly.codes`).  Every entry is below n, so the code of a sum is the sum
    of the codes.  Kept for the last permutation, so superset, fms and
    converse share one build."""
    n = len(w)
    if n > MAX_SUMSET_N:
        raise ValueError(f"sumset refused for n={n} > {MAX_SUMSET_N}")
    total = {0}  # the zero vector
    for col in filter(None, _rothe_columns(w)):
        points = _spanning_codes(col, n)
        total = {a + b for a in total for b in points}
    return frozenset(total)


def base_sumset(w: tuple) -> FrozenSet[int]:
    """Iterated sumset of the base-point sets of the column Schubert
    matroids SM_n(D_j), as codes: the points of `spanning_sumset(w)` of
    degree l(w), whose codes are those with l(w) in the degree byte.

    Proof: a basis of SM_n(D_j) has b_k <= s_k <= d_j, so it lies in [d_j]
    and is a basis of SM_{d_j}(D_j).  A spanning set of SM_{d_j}(D_j) has at
    least |D_j| elements, and exactly |D_j| only when it is a basis.  The
    columns partition the Rothe diagram, so the |D_j| sum to l(w): a sum of
    spanning sets has degree l(w) iff every part is a basis."""
    length, shift = perms.length(w), 8 * len(w)
    return frozenset(c for c in spanning_sumset(w) if c >> shift == length)


def _within(total: FrozenSet[int], f: Poly) -> bool:
    """Whether the code of every support point of f is in total.  No support
    set is built: a support that lies within total and has as many points
    equals it.  `poly.codes` refuses an entry above 255 with a ValueError."""
    return all(map(total.__contains__, map(codes.__getitem__, f.terms)))


def check_superset(w: tuple, groth: Poly) -> Verdict:
    """The support sits inside the spanning-set sumset; also reports whether
    the two lattice sets are equal.  A failure names the first support point
    outside it, in sorted order."""
    total = spanning_sumset(w)
    if not _within(total, groth):
        missing = min(e for e in groth.terms if codes[e] not in total)
        return Verdict(False, witness=missing, detail="support point outside sumset")
    return Verdict(True, info={"equality": len(groth.terms) == len(total)})


def check_fms(w: tuple, groth: Poly) -> Verdict:
    """The Schubert support equals the iterated base-point sumset over the
    Rothe columns.  supp 𝔖_w is read as the degree-l(w) part of the
    argument's support, 𝔊_w or 𝔖_w: 𝔊_w is the sum over the pipe dreams P
    of w of (-1)^(|P| - l(w)) x^P, where x^P has degree |P|, the number of
    crosses; |P| >= l(w), with equality only for the reduced P, whose x^P
    sum to 𝔖_w (Lascoux-Schutzenberger 1982; Knutson-Miller).  A failure
    names the first point of the symmetric difference, in sorted order."""
    length, shift = perms.length(w), 8 * len(w)
    bottom = {c for c in map(codes.__getitem__, groth.terms) if c >> shift == length}
    total = base_sumset(w)
    if bottom != total:
        witness = min(decode(c, len(w)) for c in bottom ^ total)
        return Verdict(False, witness=witness, detail="support != base sumset")
    return Verdict(True)


def check_prop_converse(w: tuple, groth: Poly) -> Verdict:
    """Degree saturation iff sumset equality.  A disagreement is reportable
    data (the biconditional is conditional on open conjectures), so the
    verdict records both sides."""
    closure = perms.upper_closure(perms.rothe_diagram(w))
    degree_side = groth.degree() == len(closure.boxes)
    total = spanning_sumset(w)
    polytope_side = len(groth.terms) == len(total) and _within(total, groth)
    ok = degree_side == polytope_side
    return Verdict(
        ok,
        witness=None if ok else (degree_side, polytope_side),
        info={"degree_saturated": degree_side, "sumset_equality": polytope_side},
    )


def lattice_set_text(A: FrozenSet[tuple]) -> str:
    """Debug dump: one comma-separated vector per line, in term order."""
    return "\n".join(",".join(map(str, v)) for v in sorted(A, key=lambda v: v[::-1]))
