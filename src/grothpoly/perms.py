"""
Permutations in one-line notation, Rothe diagrams, and structural predicates.

A permutation of [n] is represented as a tuple ``w`` of the n distinct values
1..n, so ``w[i-1] == w(i)``.  Generators act on the right: ``apply_s(w, j)``
swaps positions j and j+1 (1-based), not values.
"""
from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional, Sequence


class Diagram(NamedTuple):
    """A finite set of grid boxes (row, col), both 1-based, inside [n] x [n]."""

    boxes: frozenset
    n: int

    def column(self, j: int) -> frozenset:
        return frozenset(i for (i, jj) in self.boxes if jj == j)


def check_perm(w: Sequence[int]) -> tuple:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of [{len(w)}]: {w}")
    return w


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> tuple:
    return tuple(range(n, 0, -1))


def inverse(w: tuple) -> tuple:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[v - 1] = i
    return tuple(inv)


def apply_s(w: tuple, j: int) -> tuple:
    """Right action of the adjacent transposition s_j: swap positions j, j+1."""
    if not 1 <= j <= len(w) - 1:
        raise ValueError(f"generator index {j} out of range for n={len(w)}")
    u = list(w)
    u[j - 1], u[j] = u[j], u[j - 1]
    return tuple(u)


def embed(w: tuple, n: int) -> tuple:
    """Explicit embedding into S_n by appending fixed points."""
    if n < len(w):
        raise ValueError("cannot embed into a smaller symmetric group")
    return w + tuple(range(len(w) + 1, n + 1))


def all_perms(n: int) -> list:
    """All of S_n in lexicographic one-line order."""
    return [p for p in itertools.permutations(range(1, n + 1))]


def parse_perm(text: str) -> tuple:
    """Parse one-line notation: comma-separated, or contiguous digits for n <= 9.

    >>> parse_perm("21543")
    (2, 1, 5, 4, 3)
    >>> parse_perm("2,6,7,4,1,9,8,5,3") == parse_perm("267419853")
    True
    """
    text = text.strip()
    if "," in text:
        word = tuple(int(part) for part in text.split(","))
    else:
        word = tuple(int(ch) for ch in text)
    return check_perm(word)


def format_perm(w: tuple) -> str:
    """Serialize to the comma form, e.g. "2,1,5,4,3"."""
    return ",".join(str(v) for v in w)


def length(w: tuple) -> int:
    """Number of inversions of w."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def descents(w: tuple) -> list:
    return [j for j in range(1, len(w)) if w[j - 1] > w[j]]


def ascents(w: tuple) -> list:
    return [j for j in range(1, len(w)) if w[j - 1] < w[j]]


def rothe_diagram(w: tuple) -> Diagram:
    """The Rothe diagram D(w) = {(i,j) : i < w^{-1}(j) and j < w(i)}."""
    n = len(w)
    inv = inverse(w)
    boxes = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i < inv[j - 1] and j < w[i - 1]
    )
    return Diagram(boxes, n)


def upper_closure(D: Diagram) -> Diagram:
    """Fill every column of D upward to row 1 (empty columns stay empty)."""
    tops = {}
    for (i, j) in D.boxes:
        tops[j] = max(tops.get(j, 0), i)
    boxes = frozenset((i, j) for j, top in tops.items() for i in range(1, top + 1))
    return Diagram(boxes, D.n)


def weight(D: Diagram) -> tuple:
    """Row-count vector wt(D): entry i is the number of boxes in row i."""
    wt = [0] * D.n
    for (i, _) in D.boxes:
        wt[i - 1] += 1
    return tuple(wt)


def rajcode(w: tuple) -> tuple:
    """Rajchgot code: r_j is the number of terms of w(j..n) omitted from a
    longest increasing subsequence of w(j..n) containing w(j).

    Computed by an O(n^2) DP over suffixes anchored at each position.
    """
    n = len(w)
    # lis[j] = longest increasing subsequence of w(j..n) starting with w(j)
    lis = [1] * n
    for j in range(n - 2, -1, -1):
        lis[j] = 1 + max((lis[k] for k in range(j + 1, n) if w[k] > w[j]), default=0)
    return tuple((n - j) - lis[j] for j in range(n))


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


def contains_pattern(w: tuple, p: tuple) -> bool:
    """True iff some subsequence of w is order-isomorphic to p (brute force)."""
    k = len(p)
    if k > len(w):
        return False
    rank = _ranking(p)
    for sub in itertools.combinations(w, k):
        if _ranking(sub) == rank:
            return True
    return False


def _ranking(seq: Iterable[int]) -> tuple:
    seq = tuple(seq)
    order = sorted(seq)
    return tuple(order.index(v) for v in seq)


# Avoiding all of these is equivalent to every nonzero Schubert coefficient
# being 1.
ZERO_ONE_PATTERNS = (
    (1, 2, 5, 4, 3),
    (1, 3, 2, 5, 4),
    (1, 3, 5, 2, 4),
    (1, 3, 5, 4, 2),
    (2, 1, 5, 4, 3),
    (1, 2, 5, 3, 6, 4),
    (1, 2, 5, 6, 3, 4),
    (2, 1, 5, 3, 6, 4),
    (2, 1, 5, 6, 3, 4),
    (3, 1, 5, 2, 6, 4),
    (3, 1, 5, 6, 2, 4),
    (3, 1, 5, 6, 4, 2),
)


# The same patterns standardized by `_ranking`, one set per length.
_ZERO_ONE_RANKS = {
    k: frozenset(_ranking(p) for p in ZERO_ONE_PATTERNS if len(p) == k)
    for k in sorted({len(p) for p in ZERO_ONE_PATTERNS})
}


def is_zero_one(w: tuple) -> bool:
    """True iff w avoids the twelve patterns characterizing 0/1 Schubert
    coefficients, each subsequence standardized once and looked up among the
    patterns of its length."""
    return not any(
        _ranking(sub) in ranks
        for k, ranks in _ZERO_ONE_RANKS.items()
        for sub in itertools.combinations(w, k)
    )


def diagram_precedes(R: frozenset, S: frozenset) -> bool:
    """Column order: #R == #S and sorted elements compare entrywise <=."""
    if len(R) != len(S):
        return False
    return all(a <= b for a, b in zip(sorted(R), sorted(S)))
