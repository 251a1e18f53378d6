"""
Schubert matroids, their spanning-set lattice points and sumsets, paramodular
pairs and generalized-polymatroid lattice machinery, and the polytopal
checkers.

Subset functions on 2^[n] are stored as dense tuples indexed by bitmask
(bit i-1 set means i is in the subset); n is hard-capped at 12.

The packed kernels hold a subset function as one int with one byte lane
per subset.  conj4's pair is recovered in absolute lanes: the lane of a
support point at I is its coordinate sum over I, at most n(n-1)/2 <= 45
in the staircase box, read from two per-n tables with no translation
(`recover_pair`), and so is each candidate of conj4's lattice test
(`_lattice_point_outside`).  The paramodularity test biases its lanes by
the least value of the pair.
"""
from __future__ import annotations

import functools
import itertools
from operator import mul, or_
from typing import FrozenSet, Optional, Sequence, Tuple

from . import perms
from .poly import Poly, _boxes, _SupportView, support_view
from .verdicts import PASS, Frozen, Verdict

MAX_SUBSET_N = 12
# A packed lane is one byte, compared by its 0x80 bit (`_at_least`), and the
# paramodularity test adds two lanes: a lane holding at most 63 keeps the sum
# below 128.  In the staircase box (n <= 10) pair values lie in [0, 45], and
# so does every lane of a point of the box.
MAX_SPAN = 63


class SetFunctionPair:
    """A pair (y, z) of integer set functions on 2^[n] with y(0) = z(0) = 0,
    candidate lower/upper bounds of a generalized polymatroid, with values in
    [lo, lo + span]; a span above MAX_SPAN, too wide for the paramodularity
    test's lanes, is refused with a ValueError."""

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


def recover_pair(view: _SupportView) -> SetFunctionPair:
    """The unique candidate paramodular pair of the convex hull of a
    support, given by its view (`poly.support_view`): y(I) and z(I) are the
    min and max over the support of the sum over I, alpha(I), which is
    monotone in alpha.  Below each support point lies a minimal one, whose
    sum is no larger, and above it a maximal one, whose sum is no smaller:
    y is the min over the view's `lower`, which holds the minimal points,
    and z the max over its `maximal`.  (Convexity makes the finite min and
    max stand in for the polytope.)

    Packed by masks: a point alpha becomes one int with one byte lane per
    mask I, holding alpha(I): the sum of alpha_i R_i, where R_i has lane I
    equal to 1 iff i is in I.  That sum is linear in alpha, so the box's
    split tables of it (`_lane_tables`) give it with two lookups per point
    (`poly._Box.sums_of`).  In the staircase box a lane is at most
    n(n-1)/2 <= 45, since the box exists only for n <= 10, so it never
    reaches the lane's top bit.  y and z are then the lane-wise min and max,
    each comparison one subtract (`_at_least`)."""
    n, box = view.n, view.box
    high = _avoiding(n)[2]
    tables = _lane_tables(n)
    lower = box.sums_of(view.lower, tables)
    upper = box.sums_of(view.maximal, tables)
    y = lower[0]
    for p in lower[1:]:
        # A top bit less itself shifted to the bottom of its lane fills the
        # lane below it: keep is 0x7F in each lane where p >= y, and
        # y ^ p selects between them.
        ge = _at_least(p, y, high)
        y = p ^ (y ^ p) & ge - (ge >> 7)
    z = upper[0]
    for p in upper[1:]:
        ge = _at_least(p, z, high)
        z = z ^ (z ^ p) & ge - (ge >> 7)
    size = 1 << n
    return SetFunctionPair(y.to_bytes(size, "little"), z.to_bytes(size, "little"), n)


@functools.cache
def _lane_tables(n: int) -> tuple:
    """The split tables (`poly._Box.split_sums`) of alpha -> the sum of
    alpha_i R_i over the staircase box of S_n, for R_i the byte lanes of the
    masks that hold i, each set to 1."""
    _, steps, high = _avoiding(n)
    return _boxes(n).split_sums([(high ^ lanes) >> 7 for _, lanes in steps])


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


def lattice_points_of_pair(pair: SetFunctionPair) -> FrozenSet[tuple]:
    """All integer vectors t satisfying every subset inequality
    y(I) <= sum_{i in I} t_i <= z(I), by a depth-first search that sets the
    coordinates in order.  When t_k is set, the masks whose highest element
    is k have all their coordinates fixed, and each bounds t_k given the
    prefix's sum over the rest of the mask: entry m of `sums` is that sum
    over m < 2^k.  The singleton mask is among them, so the search is
    finite."""
    y, z, n = pair.y, pair.z, pair.n
    points = []

    def visit(prefix, sums):
        k = len(prefix)
        if k == n:
            points.append(prefix)
            return
        top = 1 << k
        lo = max(y[top + m] - s for m, s in enumerate(sums))
        hi = min(z[top + m] - s for m, s in enumerate(sums))
        for t in range(lo, hi + 1):
            visit(prefix + (t,), sums + [s + t for s in sums])

    visit((), [0])
    return frozenset(points)


def _lattice_point_outside(view: _SupportView, pair: SetFunctionPair) -> bool:
    """Whether some lattice point of the pair recovered from a support
    (`recover_pair`) lies outside it, by one bitset over the staircase box.

    A lattice point t has y(i) <= t_i <= z(i) for each singleton, and the
    support, whose min and max those are, lies in the box, so t does too;
    and y([n]) <= |t| <= z([n]).  So every lattice point outside the support
    is in C = (the grades G_d for y([n]) <= d <= z([n])) & (the points with
    y(i) <= t_i <= z(i)) & ~P (`poly._Box.grade`, `poly._Box.at_most`).
    z([n]) is the top degree, whose grade the view has built.  A candidate
    in C is packed as in `recover_pair`, lane I holding t(I) <= 45, and is
    a lattice point iff every lane lies in [y(I), z(I)]: one compare each
    way (`_at_least`)."""
    n, box = view.n, view.box
    y, z = pair.y, pair.z
    full = (1 << n) - 1
    C = 0
    for d in range(y[full], z[full] + 1):
        C |= box.grade(d)
    for i in range(n):
        lo, hi = y[1 << i], z[1 << i]
        C &= box.at_most(i, hi)
        if lo:
            C &= ~box.at_most(i, lo - 1)
    C &= ~view.bits
    high = _avoiding(n)[2]
    Y, Z = int.from_bytes(bytes(y), "little"), int.from_bytes(bytes(z), "little")
    return any(
        _at_least(p, Y, high) & _at_least(Z, p, high) == high
        for p in box.sums_of(C, _lane_tables(n))
    )


def check_conjecture_4(w: tuple, groth: Poly) -> Verdict:
    """The support's recovered pair is paramodular and reproduces the support
    as its lattice points.  Together these are equivalent to saturation plus
    the Newton polytope being a generalized polymatroid: the recovered pair
    is the only candidate, and an integral paramodular pair cuts out an
    integral polytope.

    The pair is recovered from the support's view: y from its minimal
    points, z from its maximal ones (`recover_pair`).

    Every support point satisfies the pair it was recovered from, so the
    lattice points contain the support, and equal it iff none lies outside
    it (`_lattice_point_outside`).  The points are listed only to name the
    witness, the first point in sorted order outside the support."""
    view = support_view(groth)
    pair = recover_pair(view)
    if not is_paramodular(pair):
        return Verdict(
            False, witness=paramodular_violation(pair), detail="recovered pair not paramodular"
        )
    if _lattice_point_outside(view, pair):
        diff = sorted(lattice_points_of_pair(pair) ^ groth.support())
        return Verdict(False, witness=diff[0], detail="lattice points != support")
    return PASS


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
    for col in filter(None, perms.rothe_diagram(w)):
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


# superset's passes by whether the two sets are equal.
_SUPERSET = {equal: Verdict(True, info=Frozen(equality=equal)) for equal in (False, True)}


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
    return _SUPERSET[view.bits == total]


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
    return PASS


# converse's passes by the side both sides agree on.
_CONVERSE = {
    side: Verdict(True, info=Frozen(degree_saturated=side, sumset_equality=side))
    for side in (False, True)
}


def check_prop_converse(w: tuple, groth: Poly) -> Verdict:
    """Degree saturation, deg 𝔊_w equal to the size of the closed Rothe
    diagram (the sum of its column heights), iff sumset equality.  A
    disagreement is reportable data (the biconditional is conditional on
    open conjectures), so the verdict records both sides."""
    view = support_view(groth)
    degree_side = view.degree == sum(perms.closed_rothe_diagram(w))
    polytope_side = view.bits == spanning_sumset(w)
    if degree_side == polytope_side:
        return _CONVERSE[degree_side]
    return Verdict(
        False,
        witness=(degree_side, polytope_side),
        info={"degree_saturated": degree_side, "sumset_equality": polytope_side},
    )


def lattice_set_text(A: FrozenSet[tuple]) -> str:
    """Debug dump: one comma-separated vector per line, in term order: the
    exponent of x_n compared first, then x_{n-1}, and so on."""
    return "\n".join(",".join(map(str, v)) for v in sorted(A, key=lambda v: v[::-1]))
