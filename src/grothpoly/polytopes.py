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
from operator import add, itemgetter, mul, or_
from typing import FrozenSet, List, Optional, Sequence, Tuple

from . import perms
from .poly import Poly, _boxes, decode, support_view
from .verdicts import Verdict

MAX_SUBSET_N = 12
# A packed lane is one byte, compared by its 0x80 bit (`_at_least`), and the
# paramodularity test adds two lanes: a lane holding at most 63 keeps the sum
# below 128.  In the staircase box (n <= 10) pair values lie in [0, 45].
MAX_SPAN = 63


class SetFunctionPair:
    """A pair (y, z) of integer set functions on 2^[n] with y(0) = z(0) = 0,
    candidate lower/upper bounds of a generalized polymatroid, with values in
    [lo, lo + span]; a span above MAX_SPAN is refused with a ValueError."""

    def __init__(self, y: Sequence[int], z: Sequence[int], n: int):
        if n > MAX_SUBSET_N:
            raise ValueError(f"subset tables refused for n={n} > {MAX_SUBSET_N}")
        self.y = tuple(y)
        self.z = tuple(z)
        self.n = n
        self.lo = min(min(self.y), min(self.z))
        self.span = max(max(self.y), max(self.z)) - self.lo
        if self.span > MAX_SPAN:
            raise ValueError(f"pair values span {self.span}, too wide for the packed kernels")

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

    Packed by masks: after translating each coordinate by its minimum
    low_i, a point p becomes one int with one byte lane per mask m, holding
    the sum of p_i - low_i over m: the sum of (p_i - low_i) R_i, where R_i
    has lane m equal to 1 iff i is in m.  A lane is at most the sum of the
    ranges max_i - low_i, which must be at most MAX_SPAN (a larger sum is
    refused with a ValueError), so it never reaches the lane's top bit.
    y and z are then the lane-wise min and max over the points, each
    comparison one subtract (`_at_least`), plus the sum of low_i over m.
    The translation is one subtract of L, the sum of low_i R_i, from the
    sum of p_i R_i, since both are linear in p."""
    A = list(A)
    if not A:
        raise ValueError("cannot recover a pair from an empty point set")
    n = len(A[0])
    columns = list(zip(*A))
    lows = list(map(min, columns))
    spread = sum(map(max, columns)) - sum(lows)
    if spread > MAX_SPAN:
        raise ValueError(f"coordinate ranges sum to {spread}, too large for the packed columns")
    _, steps, high = _avoiding(n)
    # R_i: the lanes that do not avoid i, their top bit moved to the bottom.
    ones = [(high ^ lanes) >> 7 for _, lanes in steps]
    offsets = [0]
    for low in lows:
        offsets += [o + low for o in offsets]
    base = sum(map(mul, lows, ones))
    packed = [sum(map(mul, p, ones)) - base for p in A]
    y = z = packed[0]
    for p in packed[1:]:
        # A top bit less itself shifted to the bottom of its lane fills the
        # lane below it: keep is 0x7F in each lane where p >= y, and
        # y ^ p selects between them.
        ge = _at_least(p, y, high)
        y = p ^ (y ^ p) & ge - (ge >> 7)
        ge = _at_least(p, z, high)
        z = z ^ (z ^ p) & ge - (ge >> 7)
    y = map(add, y.to_bytes(len(offsets), "little"), offsets)
    z = map(add, z.to_bytes(len(offsets), "little"), offsets)
    return SetFunctionPair(y, z, n)


def _at_least(a: int, b: int, high: int) -> int:
    """The top bit of each lane where a >= b, lane-wise, for a and b whose
    lanes are all below their top bit, which `high` holds: a lane of
    (a | high) - b is a + 2^(top) - b, which neither borrows nor carries."""
    return ((a | high) - b) & high


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

    The tests run in the order z, y, f; the witness is the failing
    inequality of the first test that fails, with the least mask S, then
    i, then j.  It names the test, S, the elements i and j (1-based; j is
    None for f) and both sides of the inequality lhs >= rhs that failed.

    Packed: z, y and f, the last as z plus y with its lanes reversed
    (y([n] - X) is entry 2^n - 1 - X), are each one int with one byte lane
    per mask, every value plus the bias -lo, for lo the least value of y
    and z.  Shifting right by 2^i lanes puts the value at S + i
    in lane S, so one test of one pair i < j (one i for f) is one lane-wise
    compare (`_at_least`) of two sums of two lanes, kept on the lanes S
    that avoid i and j.  A sum is at most twice the pair's span, at most
    2 MAX_SPAN = 126 (`SetFunctionPair`), so it stays below the top bit."""
    y, z, n, lo = pair.y, pair.z, pair.n, pair.lo
    full = (1 << n) - 1
    squares, steps, high = _avoiding(n)

    def pack(values):
        if lo:
            values = map((-lo).__add__, values)
        return int.from_bytes(bytes(values), "little")

    def least(fails, cases):
        """The least (S, i, ...) over the failing lanes S of each case."""
        return min(
            ((fail & -fail).bit_length() // 8 - 1, *case[:-1])
            for fail, case in zip(fails, cases)
            if fail
        )

    # fail = lanes & ~((lhs | high) - rhs): the top bit of each lane S,
    # among those kept, where lhs < rhs (`_at_least`).
    shifts = [8 << i for i in range(n)]  # 2^i lanes
    Z, Y = pack(z), pack(y)
    Zs, Ys = [Z >> s for s in shifts], [Y >> s for s in shifts]
    fails = [lanes & ~((Zs[i] + Zs[j] | high) - (Zs[i] >> shifts[j]) - Z) for i, j, lanes in squares]
    if any(fails):
        S, i, j = least(fails, squares)
        a, b = S | 1 << i, S | 1 << j
        lhs, rhs = z[a] + z[b], z[a | b] + z[S]
        return {"test": "z submodular", "mask": S, "i": i + 1, "j": j + 1, "lhs": lhs, "rhs": rhs}
    fails = [lanes & ~((Y + (Ys[i] >> shifts[j]) | high) - Ys[i] - Ys[j]) for i, j, lanes in squares]
    if any(fails):
        S, i, j = least(fails, squares)
        a, b = S | 1 << i, S | 1 << j
        lhs, rhs = y[a | b] + y[S], y[a] + y[b]
        return {"test": "y supermodular", "mask": S, "i": i + 1, "j": j + 1, "lhs": lhs, "rhs": rhs}
    F = Z + pack(y[::-1])
    fails = [lanes & ~((F >> shifts[i] | high) - F) for i, lanes in steps]
    if any(fails):
        S, i = least(fails, steps)
        a = S | 1 << i
        lhs, rhs = z[a] + y[full ^ a], z[S] + y[full ^ S]
        return {"test": "f monotone", "mask": S, "i": i + 1, "j": None, "lhs": lhs, "rhs": rhs}
    return None


@functools.cache
def _avoiding(n: int) -> tuple:
    """For byte lanes, one per mask of [n]: (i, j, the top bit of each lane
    S that avoids i and j) for i < j, (i, that of each lane that avoids i),
    and the top bit of every lane."""

    def lanes(bits):
        return int.from_bytes(bytes(0 if S & bits else 0x80 for S in range(1 << n)), "little")

    squares = [(i, j, lanes(1 << i | 1 << j)) for i in range(n) for j in range(i + 1, n)]
    return squares, [(i, lanes(1 << i)) for i in range(n)], lanes(0)


def is_paramodular(pair: SetFunctionPair) -> bool:
    """y supermodular, z submodular, and the cross inequality
    z(I) - y(J) >= z(I - J) - y(J - I), by the local tests of
    `paramodular_violation` in O(n^2) packed compares instead of a scan
    over all O(4^n) subset pairs."""
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
    Z_k - P in [0, 2 D]: none borrows, since D <= MAX_SPAN
    (`SetFunctionPair`).  The bounds on coordinate k are then
    max((Y_k - P).to_bytes(2^k)) - D and min((Z_k - P).to_bytes(2^k)) - D,
    a fixed number of big-int operations per node."""

    def __init__(self, pair: SetFunctionPair):
        n = self.n = pair.n
        self.pair = pair
        if n == 0:
            return  # the one point () needs no search
        self.span, self.bias = pair.span, -pair.lo
        self.order = tuple(sorted(range(n), key=lambda i: pair.z[1 << i] - pair.y[1 << i]))
        pick = _search_masks(self.order)

        def packed(table):
            # Y_k: the masks whose last element is k, positions 2^k .. 2^(k+1) - 1.
            row = bytes(map((pair.span - pair.lo).__add__, pick(table)))
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


@functools.cache
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

    The pair is recovered from the support's extremal points only: its
    minimal points and its maxima (the view's).  y(I) and z(I) are the min
    and max over the support of the sum over I, which is monotone in alpha:
    below each support point lies a minimal one, whose sum is no larger, and
    above it a maximal one, whose sum is no smaller.  The view's `lower`
    (`poly._SupportView`) holds the support points with no unit step down
    in the support, the minimal points among them.

    Every support point satisfies the pair it was recovered from, so the
    lattice points contain the support, and equal it iff there are |supp|
    of them: the search counts and stops past |supp|, and enumerates only
    to name the witness, the first point in sorted order outside the
    support."""
    view = support_view(groth)
    extremal = set(view.box.points(view.lower))
    extremal.update(decode(m, view.n) for m in view.maxima)
    pair = recover_pair(extremal)
    if not is_paramodular(pair):
        return Verdict(
            False, witness=paramodular_violation(pair), detail="recovered pair not paramodular"
        )
    size = len(groth.terms)
    if _LatticeSearch(pair).count(size) != size:
        diff = sorted(lattice_points_of_pair(pair) ^ groth.support())
        return Verdict(False, witness=diff[0], detail="lattice points != support")
    return Verdict(True)


def _rothe_columns(w: tuple) -> List[FrozenSet[int]]:
    D = perms.rothe_diagram(w)
    return [D.column(j) for j in range(1, len(w) + 1)]


@functools.cache
def _spanning_indices(S: FrozenSet[int], n: int) -> Tuple[int, ...]:
    """The indices k(p) in the staircase box of S_n (`poly._Box`) of the
    spanning points p of SM_{max S}(S), zero-appended into dimension n.
    Kept per (S, n): a Rothe column of S_n takes at most 2^(n-1) values."""
    weights = _boxes(n).weights
    return tuple(sum(map(mul, p, weights)) for p in spanning_points(S, max(S)))


@perms.last_call
def spanning_sumset(w: tuple) -> int:
    """Iterated sumset of the spanning-point sets of the column Schubert
    matroids SM_{d_j}(D_j), d_j = max D_j, zero-appended into dimension n,
    over the nonempty Rothe columns D_j of w (an empty column adds only the
    zero vector; column n is empty), as a bitset over the staircase box of
    S_n (`poly._Box`): superset, fms and converse share one build.

    Adding points is adding their indices, so a column ORs the partial sum
    shifted by the index of each of its points.  Proof: entry i of a partial
    sum is at most #{j : d_j >= i}.  Each such j is w(s) for s = w^-1(j) >
    d_j >= i, since (d_j, j) is in the Rothe diagram, so that count is at
    most n - i: no mixed-radix digit overflows."""
    n = len(w)
    total = 1  # the zero vector
    for col in filter(None, _rothe_columns(w)):
        total = functools.reduce(or_, map(total.__lshift__, _spanning_indices(col, n)))
    return total


def base_sumset(w: tuple) -> int:
    """Iterated sumset of the base-point sets of the column Schubert
    matroids SM_n(D_j), as a bitset: the points of `spanning_sumset(w)` of
    degree l(w), G_l(w) in the box (`poly._Box.grade`).

    Proof: a basis of SM_n(D_j) has b_k <= s_k <= d_j, so it lies in [d_j]
    and is a basis of SM_{d_j}(D_j).  A spanning set of SM_{d_j}(D_j) has at
    least |D_j| elements, and exactly |D_j| only when it is a basis.  The
    columns partition the Rothe diagram, so the |D_j| sum to l(w): a sum of
    spanning sets has degree l(w) iff every part is a basis."""
    return spanning_sumset(w) & _boxes(len(w)).grade(perms.length(w))


def check_superset(w: tuple, groth: Poly) -> Verdict:
    """The support P sits inside the spanning-set sumset T, P & ~T = 0;
    also reports whether the two lattice sets are equal, P == T.  A failure
    names the first support point outside it, in sorted order."""
    total = spanning_sumset(w)
    view = support_view(groth)
    outside = view.bits & ~total
    if outside:
        missing = min(view.box.points(outside))
        return Verdict(False, witness=missing, detail="support point outside sumset")
    return Verdict(True, info={"equality": view.bits == total})


def check_fms(w: tuple, groth: Poly) -> Verdict:
    """The Schubert support equals the iterated base-point sumset over the
    Rothe columns.  supp 𝔖_w is read as the degree-l(w) part of the
    argument's support, 𝔊_w or 𝔖_w: 𝔊_w is the sum over the pipe dreams P
    of w of (-1)^(|P| - l(w)) x^P, where x^P has degree |P|, the number of
    crosses; |P| >= l(w), with equality only for the reduced P, whose x^P
    sum to 𝔖_w (Lascoux-Schutzenberger 1982; Knutson-Miller).  A failure
    names the first point of the symmetric difference, in sorted order."""
    view = support_view(groth)
    bottom = view.bits & view.box.grade(perms.length(w))
    total = base_sumset(w)
    if bottom != total:
        witness = min(view.box.points(bottom ^ total))
        return Verdict(False, witness=witness, detail="support != base sumset")
    return Verdict(True)


def check_prop_converse(w: tuple, groth: Poly) -> Verdict:
    """Degree saturation iff sumset equality.  A disagreement is reportable
    data (the biconditional is conditional on open conjectures), so the
    verdict records both sides."""
    closure = perms.closed_rothe_diagram(w)
    view = support_view(groth)
    degree_side = view.degree == len(closure.boxes)
    polytope_side = view.bits == spanning_sumset(w)
    ok = degree_side == polytope_side
    return Verdict(
        ok,
        witness=None if ok else (degree_side, polytope_side),
        info={"degree_saturated": degree_side, "sumset_equality": polytope_side},
    )


def lattice_set_text(A: FrozenSet[tuple]) -> str:
    """Debug dump: one comma-separated vector per line, in term order: the
    exponent of x_n compared first, then x_{n-1}, and so on."""
    return "\n".join(",".join(map(str, v)) for v in sorted(A, key=lambda v: v[::-1]))
