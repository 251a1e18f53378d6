"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials.

A polynomial is a finite map from exponent vectors (tuples of length nvars)
to nonzero integer coefficients.  All arithmetic is exact; the divided
differences are written in closed form, one monomial at a time.  Terms are
checked once, where they enter: through `Poly(...)`, or through `parse_text`
(behind `from_text` and the cache reader); results derived from valid
polynomials skip the checks.
"""
from __future__ import annotations

from typing import Dict, Optional

from . import perms

# Counts divided-difference applications; used to verify that a warm cache
# never recomputes polynomials.
OPERATOR_APPLICATIONS = 0


class Poly:
    """Immutable exact sparse polynomial in nvars variables."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Dict[tuple, int], nvars: int):
        for expo, coeff in terms.items():
            if coeff == 0:
                raise ValueError(f"zero coefficient stored at {expo}")
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for nvars={nvars}")
        self.terms = dict(terms)
        self.nvars = nvars

    @classmethod
    def _trusted(cls, terms: Dict[tuple, int], nvars: int) -> "Poly":
        """Wrap terms derived from valid polynomials, skipping the checks."""
        out = object.__new__(cls)
        out.terms = terms
        out.nvars = nvars
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls({}, nvars)

    @classmethod
    def monomial(cls, expo: tuple, nvars: int, coeff: int = 1) -> "Poly":
        if coeff == 0:
            return cls.zero(nvars)
        return cls({tuple(expo): coeff}, nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.monomial((0,) * nvars, nvars)

    @classmethod
    def variable(cls, j: int, nvars: int) -> "Poly":
        """The variable x_j (1-based)."""
        expo = tuple(1 if k == j else 0 for k in range(1, nvars + 1))
        return cls.monomial(expo, nvars)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_nvars(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} and {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_nvars(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            c = out.get(expo, 0) + coeff
            if c:
                out[expo] = c
            else:
                out.pop(expo, None)
        return Poly._trusted(out, self.nvars)

    def __neg__(self) -> "Poly":
        return Poly._trusted({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_nvars(other)
        out: Dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return Poly._trusted(out, self.nvars)

    def swap_vars(self, j: int) -> "Poly":
        """Exchange x_j and x_{j+1} (1-based j, 1 <= j <= nvars - 1)."""
        if not 1 <= j <= self.nvars - 1:
            raise ValueError(f"swap index {j} out of range for nvars={self.nvars}")
        out = {}
        for expo, coeff in self.terms.items():
            e = list(expo)
            e[j - 1], e[j] = e[j], e[j - 1]
            out[tuple(e)] = coeff
        return Poly._trusted(out, self.nvars)

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("min degree of the zero polynomial is undefined")
        return min(sum(e) for e in self.terms)

    def graded_component(self, d: int) -> "Poly":
        return Poly._trusted(
            {e: c for e, c in self.terms.items() if sum(e) == d}, self.nvars
        )

    def top_component(self) -> "Poly":
        return self.graded_component(self.degree())

    def lowest_component(self) -> "Poly":
        return self.graded_component(self.min_degree())

    def principal_specialization(self) -> int:
        """Evaluate at x_1 = ... = x_n = 1, i.e. sum all coefficients."""
        return sum(self.terms.values())

    def leading_exponent(self) -> tuple:
        """Maximal exponent under the canonical term order (x_n weighs most)."""
        if not self.terms:
            raise ValueError("leading exponent of the zero polynomial is undefined")
        return max(self.terms, key=term_key)

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

    @classmethod
    def from_text(cls, text: str, nvars: int) -> "Poly":
        """Parse the canonical text form (see `parse_text`)."""
        return parse_text(text, nvars, {})

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r}, nvars={self.nvars})"


def term_key(expo: tuple) -> tuple:
    """Sort key for the canonical term order: compare the exponent of x_n
    first, then x_{n-1}, and so on.  This is a term order with
    x_1 < x_2 < ... < x_n."""
    return expo[::-1]


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
        return Poly._trusted(terms, nvars)
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
    return Poly._trusted(terms, nvars)


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
    return Poly._trusted({vectors.setdefault(e, e): c for e, c in out.items() if c}, f.nvars)


def staircase_monomial(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the w_0 base case."""
    return Poly.monomial(tuple(range(n - 1, -1, -1)), n)


class PolynomialTable:
    """Memoized Schubert ("S") or Grothendieck ("G") polynomials for all of
    S_n.  Built in one sweep descending from w_0 through the weak order;
    read-only afterwards."""

    def __init__(self, n: int, flavor: str, polys: Dict[tuple, Poly]):
        if flavor not in ("S", "G"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.n = n
        self.flavor = flavor
        self.polys = polys

    def __getitem__(self, w: tuple) -> Poly:
        return self.polys[w]

    def __contains__(self, w: tuple) -> bool:
        return w in self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def items(self):
        return self.polys.items()


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
