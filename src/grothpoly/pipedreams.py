"""
Pipe dream enumeration: the independent oracle for Schubert and Grothendieck
polynomials.

A pipe dream on the n x n grid may place crosses only in the strict
north-west staircase (cells (i,j) with i + j <= n); everything else is an
elbow.  Read in reading order (rows top to bottom, each row right to left),
cross (i,j) is the generator s_{i+j-1}, and a cross set is a pipe dream of w
exactly when the Demazure (0-Hecke) product of that word is w
(Knutson-Miller, subword complexes).  One depth-first walk over the cells in
reading order carries that product, so every node costs one generator step.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List

from . import perms
from .poly import Poly

MAX_GRID = 7  # 2^21 cross subsets; anything larger is infeasible by design


def staircase_cells(n: int) -> List[tuple]:
    """Cells eligible for a cross: (i,j) with i + j <= n, row-major order."""
    return [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]


def _walk(n: int, reduced: bool, leaf: Callable[[list, list, list, int], None]) -> None:
    """Visit every cross subset of the staircase, depth first in reading
    order, calling leaf(crosses, w, weight, absorbed) once per subset.

    The walk carries the running Demazure product u: a cross (i,j) applies
    s_k, k = i+j-1, when u(k) < u(k+1) and is absorbed otherwise.  At a leaf
    u is the permutation w of the cross set, and the number of absorbed
    crosses is #crosses - l(w).  With reduced=True the walk prunes at the
    first absorbed cross, so it visits only the reduced pipe dreams.  The
    lists passed to leaf are the walk's own; copy what must be kept.
    """
    _check_size(n)
    reading_order = sorted(staircase_cells(n), key=lambda c: (c[0], -c[1]))
    cells = [(i, j, i + j - 1) for i, j in reading_order]
    last = len(cells)
    u = list(range(1, n + 1))
    weight = [0] * n
    crosses: List[tuple] = []

    def visit(t: int, absorbed: int) -> None:
        if t == last:
            leaf(crosses, u, weight, absorbed)
            return
        i, j, k = cells[t]
        visit(t + 1, absorbed)
        crosses.append((i, j))
        weight[i - 1] += 1
        if u[k - 1] < u[k]:
            u[k - 1], u[k] = u[k], u[k - 1]
            visit(t + 1, absorbed)
            u[k - 1], u[k] = u[k], u[k - 1]
        elif not reduced:
            visit(t + 1, absorbed + 1)
        crosses.pop()
        weight[i - 1] -= 1

    visit(0, 0)
    del visit  # break the closure's reference to itself, freeing leaf's state now


def enumerate_pipe_dreams(w: tuple, mode: str) -> set:
    """All pipe dreams of w.  mode="reduced" keeps only those with exactly
    l(w) crosses (RPD); mode="all" keeps every cross set whose Demazure
    product is w (PD)."""
    if mode not in ("reduced", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    target = list(w)
    found = set()

    def leaf(crosses, u, weight, absorbed):
        if u == target:
            found.add(frozenset(crosses))

    _walk(len(w), mode == "reduced", leaf)
    return found


def pd_polynomial(w: tuple, mode: str) -> Poly:
    """Monomial-sum formula over pipe dreams: unsigned over RPD for
    mode="schubert", signed by (-1)^(#crosses - l(w)) over PD for
    mode="grothendieck"."""
    return pd_polynomial_all(len(w), mode)[w]


def pd_polynomial_all(n: int, mode: str) -> Dict[tuple, Poly]:
    """One walk over every cross subset (every reduced one for
    mode="schubert"), bucketed by permutation."""
    if mode not in ("schubert", "grothendieck"):
        raise ValueError(f"unknown mode {mode!r}")
    buckets: Dict[tuple, Dict[tuple, int]] = defaultdict(dict)

    def leaf(crosses, u, weight, absorbed):
        terms = buckets[tuple(u)]
        expo = tuple(weight)
        terms[expo] = terms.get(expo, 0) + (-1 if absorbed & 1 else 1)

    _walk(n, mode == "schubert", leaf)
    return {
        w: Poly({e: c for e, c in buckets[w].items() if c}, n)
        for w in perms.all_perms(n)
    }


def interior_euler_check(w: tuple) -> int:
    """Alternating sum (-1)^(#crosses - l(w)) over PD(w), the principal
    specialization of the pipe-dream Grothendieck polynomial; equals 1 for
    every permutation."""
    return pd_polynomial(w, "grothendieck").principal_specialization()


def dream_to_text(crosses: Iterable[tuple], n: int) -> str:
    """Debug form: n, then the sorted cross list."""
    body = " ".join(f"({i},{j})" for (i, j) in sorted(crosses))
    return f"{n} {body}".rstrip()


def _check_size(n: int) -> None:
    if n > MAX_GRID:
        raise ValueError(
            f"pipe dream enumeration over 2^{n * (n - 1) // 2} subsets refused "
            f"for n={n} (limit n <= {MAX_GRID})"
        )
