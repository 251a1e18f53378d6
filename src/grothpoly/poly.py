"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials: the independent computation of the tables that
`cache.load_or_build` builds from pipe dreams (the oracle check reads 𝔊).

A polynomial is a finite map from exponent vectors (tuples of length nvars)
to nonzero integer coefficients.  All arithmetic is exact; the divided
differences are written in closed form, one monomial at a time.  `Poly`
stores the terms it is given, which the program builds itself; terms from
outside enter only through `parse_text` (behind the cache reader), which
checks them.

The support checks read an exponent vector alpha of length n as one integer,
its code: one byte per coordinate, x_1 lowest, and the degree above them,
code(alpha) = sum of alpha_i 256^(i-1) + |alpha| 256^n.  `codes` computes it
once per distinct vector, and `decode` masks off the degree.  While every
entry is < 256 no byte carries, so the code of a sum is the sum of the
codes, alpha + e_i is code(alpha) + 256^(i-1) + 256^n, and the numeric
order of the codes is degree, then the canonical term order (`term_key`).
"""
from __future__ import annotations

from typing import Dict, Optional

from . import perms

# Counts divided-difference applications: the work of the oracle's
# reference tables.
OPERATOR_APPLICATIONS = 0


class Poly:
    """Immutable exact sparse polynomial in nvars variables."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Dict[tuple, int], nvars: int):
        self.terms = terms
        self.nvars = nvars

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def principal_specialization(self) -> int:
        """Evaluate at x_1 = ... = x_n = 1, i.e. sum all coefficients."""
        return sum(self.terms.values())

    def to_text(self, texts: Optional[Dict[tuple, str]] = None) -> str:
        """Canonical text form: `coeff:e1,...,en` joined by `;`.

        `texts` maps an exponent vector to its text and grows as new vectors
        are seen, as `parse_text`'s `vectors` does the other way: a writer
        that passes one dict per table formats each distinct vector once.
        Without it, a fresh dict is used."""
        if texts is None:
            texts = {}
        chunks = []
        for expo in sorted(self.terms, key=term_key):
            text = texts.get(expo)
            if text is None:
                text = texts[expo] = ",".join(map(str, expo))
            chunks.append(f"{self.terms[expo]}:{text}")
        return ";".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r}, nvars={self.nvars})"


def term_key(expo: tuple) -> tuple:
    """Sort key for the canonical term order: compare the exponent of x_n
    first, then x_{n-1}, and so on.  This is a term order with
    x_1 < x_2 < ... < x_n."""
    return expo[::-1]


class _Codes(dict):
    """alpha -> code(alpha) (see the module docstring), computed once per
    distinct vector.  An entry outside 0..255 is refused with a ValueError
    by `bytes`."""

    def __missing__(self, alpha: tuple) -> int:
        low = int.from_bytes(bytes(alpha), "little")
        code = self[alpha] = low + (sum(alpha) << 8 * len(alpha))
        return code


codes = _Codes()


def decode(code: int, n: int) -> tuple:
    """The exponent vector of length n with this code."""
    return tuple((code & ((1 << 8 * n) - 1)).to_bytes(n, "little"))


def parse_text(text: str, nvars: int, vectors: Dict[str, tuple]) -> Poly:
    """Parse the canonical text form `coeff:e1,...,en;...` into a Poly.

    `vectors` maps exponent text to its tuple and grows as new vectors are
    seen: each distinct vector is converted and checked (length nvars,
    entries >= 0) once per table, and every polynomial parsed against the
    same table shares that one tuple.  Each term costs one split, one lookup
    and one `int`; the polynomial as a whole must have nonzero coefficients
    and no repeated exponent.  The empty text is the zero polynomial.
    """
    terms: Dict[tuple, int] = {}
    if not text:
        return Poly(terms, nvars)
    chunks = text.split(";")
    for chunk in chunks:
        coeff, key = chunk.split(":")
        expo = vectors.get(key)
        if expo is None:
            expo = vectors[key] = _parse_vector(key, nvars)
        terms[expo] = int(coeff)
    if len(terms) != len(chunks):
        raise ValueError(f"repeated exponent: {len(chunks)} terms, {len(terms)} exponents")
    if 0 in terms.values():
        zero = next(e for e, c in terms.items() if c == 0)
        raise ValueError(f"zero coefficient stored at {zero}")
    return Poly(terms, nvars)


def _parse_vector(key: str, nvars: int) -> tuple:
    expo = tuple(map(int, key.split(",")))
    if len(expo) != nvars or min(expo) < 0:
        raise ValueError(f"bad exponent vector {expo} for nvars={nvars}")
    return expo


# The (lift, sign) parts of the two operators (see `_closed_form`).
_PLAIN = ((0, 1),)
_ISOBARIC = ((0, 1), (1, -1))


def divided_difference(f: Poly, j: int) -> Poly:
    """The operator (f - s_j.f) / (x_j - x_{j+1}), written monomial by
    monomial in closed form (see `_closed_form`)."""
    return _closed_form(f, j, _PLAIN, {})


def isobaric_divided_difference(f: Poly, j: int) -> Poly:
    """The operator f -> divided_difference((1 - x_{j+1}) f, j), that is
    d_j f - d_j(x_{j+1} f), both parts in the same pass over f."""
    return _closed_form(f, j, _ISOBARIC, {})


def _closed_form(f: Poly, j: int, parts: tuple, vectors: Dict[tuple, tuple]) -> Poly:
    """The sum of sign * divided_difference(x_{j+1}^lift f, j) over the
    (lift, sign) pairs in parts, in one pass over the monomials of f.
    `vectors` maps each exponent vector to its shared tuple and grows as new
    vectors are seen, so results built against one dict share their tuples.

    With a, b the exponents of x_j, x_{j+1}, the divided difference of
    x_j^a x_{j+1}^b is the sum of x_j^p x_{j+1}^{a+b-1-p} over
    min(a, b) <= p < max(a, b), negated when a < b (so 0 when a = b).
    """
    global OPERATOR_APPLICATIONS
    OPERATOR_APPLICATIONS += 1
    if not 1 <= j <= f.nvars - 1:
        raise ValueError(f"operator index {j} out of range for nvars={f.nvars}")
    j0 = j - 1
    out: Dict[tuple, int] = {}
    for expo, coeff in f.terms.items():
        head, tail = expo[:j0], expo[j0 + 2 :]
        for lift, sign in parts:
            a, b = expo[j0], expo[j0 + 1] + lift
            c = sign * coeff if a > b else -sign * coeff
            for p in range(min(a, b), max(a, b)):
                e = head + (p, a + b - 1 - p) + tail
                out[e] = out.get(e, 0) + c
    return Poly({vectors.setdefault(e, e): c for e, c in out.items() if c}, f.nvars)


def staircase_monomial(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the w_0 base case."""
    return Poly({tuple(range(n - 1, -1, -1)): 1}, n)


class PolynomialTable:
    """Schubert ("S") or Grothendieck ("G") polynomials for all of S_n, keyed
    by permutation; read-only once built.  `cache.load_or_build` fills it
    from pipe dreams, `build_table` from the divided differences."""

    def __init__(self, n: int, flavor: str, polys: Dict[tuple, Poly]):
        self.n = n
        self.flavor = flavor
        self.polys = polys

    def __getitem__(self, w: tuple) -> Poly:
        return self.polys[w]

    def __len__(self) -> int:
        return len(self.polys)


def build_table(n: int, flavor: str) -> PolynomialTable:
    """Compute the full table for S_n.

    Every w != w_0 has an ascent j; its parent w.s_j is longer, so processing
    permutations in decreasing length order finds each parent already done.
    Equal exponent vectors in the table are one shared tuple (S_n has at most
    n! distinct ones, the points of the staircase box).
    """
    parts = _PLAIN if flavor == "S" else _ISOBARIC
    top = staircase_monomial(n)
    vectors = {e: e for e in top.terms}
    polys: Dict[tuple, Poly] = {perms.longest_element(n): top}
    by_length = sorted(perms.all_perms(n), key=perms.length, reverse=True)
    for w in by_length[1:]:
        j = perms.ascents(w)[0]
        parent = perms.apply_s(w, j)
        polys[w] = _closed_form(polys[parent], j, parts, vectors)
    return PolynomialTable(n, flavor, polys)
