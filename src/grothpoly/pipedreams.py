"""Pipe dreams: the engine of the tables `--mode cache` writes.

A pipe dream places crosses only in the staircase cells (i,j), i + j <= n.
Read in reading order (rows top to bottom, each row right to left), cross
(i,j) is the generator s_{i+j-1}, and a cross set is a pipe dream of w exactly
when the Demazure (0-Hecke) product of that word is w (Knutson-Miller).  𝔊_w
sums (-1)^(#crosses - l(w)) x^weight over them, the weight counting crosses
per row; 𝔖_w sums x^weight over the reduced ones (#crosses = l(w)).

As an ordered product over the cells in the 0-Hecke (𝔊) or nilCoxeter (𝔖)
algebra over Z[x] (Fomin-Kirillov 1994), this is a transfer-matrix recursion.
After a prefix of the cells the state maps each Demazure product u to the
signed weight sum of the prefix's cross sets with product u.  What a cell does
to a cross set depends only on u, so merging them is exact.  Skipping the cell
keeps every entry.  A cross in row i with generator s_k, where u(k) < u(k+1),
moves x_i times the entry of u onto u s_k.  Where u(k) > u(k+1) the cross is
absorbed: for 𝔊 it adds -x_i times the entry of u to u itself; for 𝔖 the
cross set is not reduced and is dropped.  The Demazure products of a prefix's
subwords form the Bruhat lower interval below the product of the whole prefix,
so there are at most n! states, and the cost follows the size of the output,
not the 2^(n(n-1)/2) cross subsets.  A term's sign is (-1)^(degree - l(u)),
fixed by its exponent, so contributions never cancel to a zero coefficient.
`cache.load_or_build` is its caller.  The module shares only `Poly` with
the divided-difference recursion (`poly.walk`), the engine of every verify
and print run, and the tests compare the two over S_1 to S_7 (S_8 in the
slow tier).
"""
from typing import Dict, List

from . import perms
from .poly import Poly


def staircase_cells(n: int) -> List[tuple]:
    """Cells eligible for a cross: (i,j) with i + j <= n, row-major order."""
    return [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]


class _Times(dict):
    """e -> the code of x_i x^e, e + 256^(i-1) + 256^n (`poly.code`), one
    shared int per distinct code in `codes`."""

    def __init__(self, i: int, n: int, codes: Dict[int, int]):
        super().__init__()
        self.unit, self.codes = 1 << 8 * (i - 1) | 1 << 8 * n, codes

    def __missing__(self, e: int) -> int:
        up = e + self.unit
        up = self[e] = self.codes.setdefault(up, up)
        return up


def pd_polynomial_all(n: int, mode: str) -> Dict[tuple, Poly]:
    """The pipe-dream polynomial of every w in S_n, keyed by exponent code
    (`poly.code`): 𝔖_w for mode="schubert", 𝔊_w for mode="grothendieck".
    The empty cross set has weight x^0, code 0."""
    if mode not in ("schubert", "grothendieck"):
        raise ValueError(f"unknown mode {mode!r}")
    codes: Dict[int, int] = {}  # one int per distinct code, as in poly.parse_text
    times = {i: _Times(i, n, codes) for i in range(1, n)}
    states = {tuple(range(1, n + 1)): {0: 1}}
    for i, j in sorted(staircase_cells(n), key=lambda c: (c[0], -c[1])):
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
    return {w: Poly(states[w], n) for w in perms.all_perms(n)}
