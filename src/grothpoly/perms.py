"""
Permutations in one-line notation, Rothe diagrams, and structural predicates.

A permutation of [n] is represented as a tuple ``w`` of the n distinct values
1..n, so ``w[i-1] == w(i)``.  Generators act on the right: ``apply_s(w, j)``
swaps positions j and j+1 (1-based), not values.

A Rothe diagram is stored as its readers read it: as its n columns, each the
frozenset of its rows (the column Schubert matroids of the sumset checks),
and its upper closure as the n column heights, whose `weight` is P_w's
bound and whose sum is the closure's size.

`last_call` is the one memo for what the checks of one permutation share:
ℓ(w), rajcode(w), the Rothe diagram and its closure here, the support view
(`poly.support_view`) and the spanning sumset (`polytopes.spanning_sumset`)
are each computed once per w.
"""
from __future__ import annotations

import functools
import itertools
from typing import Sequence


def last_call(fn):
    """fn of one argument, with its result kept for the last argument,
    matched by identity: the checks of one permutation, handed the same w
    and the same 𝔊_w, share one computation.  The memo holds that argument,
    so a recycled id cannot match; it is released by the next call with
    another.  An argument must not change while it is kept.  The result is
    a plain function (`functools.wraps`), so a wrapper installed on a
    module attribute still sees every call."""
    last, result = object(), None

    @functools.wraps(fn)
    def kept(arg):
        nonlocal last, result
        if arg is not last:
            result = fn(arg)
            last = arg
        return result

    return kept


def check_perm(w: Sequence[int]) -> tuple:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of [{len(w)}]: {w}")
    return w


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


@last_call
def length(w: tuple) -> int:
    """Number of inversions of w."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def ascents(w: tuple) -> list:
    return [j for j in range(1, len(w)) if w[j - 1] < w[j]]


@last_call
def rothe_diagram(w: tuple) -> tuple:
    """The Rothe diagram D(w) = {(i,j) : i < w^{-1}(j) and j < w(i)}, as its
    columns: entry j - 1 is the frozenset of the rows of column j."""
    inv = inverse(w)
    return tuple(
        frozenset(i for i in range(1, s) if j < w[i - 1]) for j, s in enumerate(inv, 1)
    )


def upper_closure(columns: tuple) -> tuple:
    """The column heights of a diagram given by its columns, each filled
    upward to row 1: entry j - 1 is the lowest row of column j, 0 if it is
    empty."""
    return tuple(max(col, default=0) for col in columns)


@last_call
def closed_rothe_diagram(w: tuple) -> tuple:
    """upper_closure(rothe_diagram(w)): mobius's bound and converse's degree
    read one build."""
    return upper_closure(rothe_diagram(w))


def weight(heights: tuple) -> tuple:
    """Row-count vector wt of the closed diagram with these column heights:
    entry i - 1 is #{j : height_j >= i}, the boxes of row i."""
    return tuple(sum(h >= i for h in heights) for i in range(1, len(heights) + 1))


@last_call
def rajcode(w: tuple) -> tuple:
    """Rajchgot code: r_j is the number of terms of w(j..n) omitted from a
    longest increasing subsequence of w(j..n) containing w(j).

    Computed by an O(n^2) DP over suffixes anchored at each position; the
    report record and the rajchgot check of one w share it.
    """
    n = len(w)
    # lis[j] = longest increasing subsequence of w(j..n) starting with w(j)
    lis = [1] * n
    for j in range(n - 2, -1, -1):
        lis[j] = 1 + max((lis[k] for k in range(j + 1, n) if w[k] > w[j]), default=0)
    return tuple((n - j) - lis[j] for j in range(n))


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


@functools.cache
def _zero_one_occurrences(n: int) -> tuple:
    """(k, the k-tuples of values in [n] that are occurrences of a pattern of
    length k) for each length k of the patterns: for the values
    v_1 < ... < v_k and a pattern p, (v_{p_1}, ..., v_{p_k})."""
    occurrences = {}
    for p in ZERO_ONE_PATTERNS:
        values = itertools.combinations(range(1, n + 1), len(p))
        bad = occurrences.setdefault(len(p), set())
        bad.update(tuple(v[i - 1] for i in p) for v in values)
    return tuple(occurrences.items())


def is_zero_one(w: tuple) -> bool:
    """True iff w avoids the twelve patterns characterizing 0/1 Schubert
    coefficients: no subsequence of w is among the occurrences of the
    patterns of its length in S_n."""
    return all(
        bad.isdisjoint(itertools.combinations(w, k)) for k, bad in _zero_one_occurrences(len(w))
    )
