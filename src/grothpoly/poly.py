"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials: the independent computation of the tables that
`cache.load_or_build` builds from pipe dreams.  The oracle check applies
one step of the recursion (`recursion_parent`) to the pipe-dream 𝔊 table
per permutation; `build_table` runs the whole recursion, and the tests
compare its tables with the pipe dreams.

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
`support_view` packs the codes of one support with its top degree, maxima,
elements with no unit step up, and the unit steps conj3 finds missing;
every check that reads a support reads that view.

The view finds those order facts with a second encoding, a bitset over a
box.  Every exponent of 𝔊_w for w in S_n lies in the staircase box
alpha_i <= n - i, because row i of a pipe dream has n - i cells; that box
has n! points.  A box with radix r_i (0 <= alpha_i < r_i) numbers its
points k(alpha) = sum of alpha_i w_i, with w_1 = 1 and w_{i+1} = w_i r_i:
the digits of k in mixed radix are alpha, x_n the most significant, so
index order is term order.  A set of points is one integer, with bit
k(alpha) set for each alpha in it, and a unit step of a whole set is one
shift by w_i and one mask (`_SupportView` has the proofs).  A support that
leaves the staircase gets a box grown to fit it.  Boxes of more than 10!
points, the staircase box of S_10, are refused with a ValueError: at
n >= 11 the view refuses every support.
"""
from __future__ import annotations

import math
from operator import ge, mul
from typing import Dict, Optional, Tuple

from . import perms

# Counts divided-difference applications in this process.  The oracle
# applies one per step of the recursion it checks: n! - 1 over a full sweep,
# at most n(n-1)/2 for one --perm.  A forked worker counts in its own copy.
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
        return max(map(sum, self.terms))

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


# Points of the largest box the bitset layer builds: 10!, the staircase box
# of S_10.  The staircase box of S_11 has 39 916 800.
MAX_BOX = math.factorial(10)


class _OutsideBox(Exception):
    """A code with an entry beyond its box's radix."""


def _repeat(block: int, period: int, size: int) -> int:
    """The size-bit integer whose every period-bit word, from bit 0 up, is
    block; period divides size.  Eight words at most are joined by shifts,
    to a whole number of bytes, and the bytes are repeated."""
    unit = math.lcm(period, 8)
    word = sum(block << j for j in range(0, unit, period))
    data = word.to_bytes(unit // 8, "little") * -(-size // unit)
    return int.from_bytes(data, "little") & ((1 << size) - 1)


class _Box(dict):
    """The box of exponent vectors alpha with 0 <= alpha_i < radix_i, its
    points numbered k(alpha) = sum of alpha_i w_i, with w_1 = 1 and
    w_{i+1} = w_i radix_i (see the module docstring).  A set of points is
    the integer with bit k(alpha) set for each alpha in it.

    As a dict it maps code(alpha) to (byte, bit), the place of bit k(alpha)
    in a little-endian bytearray, filled once per distinct code, as `codes`
    is; a code outside the box raises `_OutsideBox`.  `steps` holds
    (w_i, M_i) for each coordinate, where M_i is the set of points alpha
    with alpha_i < radix_i - 1: one block of w_i radix_i bits, its low
    w_i (radix_i - 1) bits set, repeated over the box.  A box of more than
    MAX_BOX points is refused with a ValueError."""

    def __init__(self, radix: tuple):
        super().__init__()
        weights, size = [], 1
        for r in radix:
            weights.append(size)
            size *= r
        if size > MAX_BOX:
            raise ValueError(
                f"the support box {radix} has {size} points, more than the {MAX_BOX} "
                "the bitset view builds"
            )
        self.radix, self.weights, self.size = radix, weights, size
        self.steps = [
            (w, _repeat((1 << w * (r - 1)) - 1, w * r, size)) for w, r in zip(weights, radix)
        ]

    def __missing__(self, code: int) -> tuple:
        alpha = decode(code, len(self.radix))
        if any(map(ge, alpha, self.radix)):
            raise _OutsideBox(alpha)
        k = sum(map(mul, alpha, self.weights))
        place = self[code] = (k >> 3, 1 << (k & 7))
        return place

    def bits(self, codes) -> int:
        """The set of the points with these codes."""
        buf = bytearray(-(-self.size // 8))
        for code in codes:
            byte, bit = self[code]
            buf[byte] |= bit
        return int.from_bytes(buf, "little")

    def codes_in(self, bits: int) -> list:
        """The codes of the points in a set, in degree, then term order."""
        found = []
        digits = format(bits, "b")[::-1]  # digits[k] is bit k
        k = digits.find("1")
        while k >= 0:
            alpha, rest = [], k
            for r in self.radix:
                rest, a = divmod(rest, r)
                alpha.append(a)
            found.append(codes[tuple(alpha)])
            k = digits.find("1", k + 1)
        found.sort()
        return found


class _Boxes(dict):
    """radix -> its `_Box`, built once per shape."""

    def __missing__(self, radix: tuple) -> _Box:
        box = self[radix] = _Box(radix)
        return box


_boxes = _Boxes()


class _SupportView:
    """Packed facts about a set of exponent vectors of length n, with
    entries >= 0 and degree < 127:

    - `codes`: the code of each vector, in the order given;
    - `degree`: the top degree;
    - `high`: H, the mask with 0x80 in each of the n + 1 bytes;
    - `top_codes`: the codes of the top degree, in term order;
    - `uncovered`: the codes below the top degree with no unit step in the
      set, in degree, then term order;
    - `low_maxima`: the maximal codes below the top degree, in degree, then
      term order;
    - `maxima`: `top_codes`, then `low_maxima`;
    - `missing`: the unit steps beta = alpha + e_i of the set's points that
      lie below some point of the set but not in it, in degree, then term
      order (conj3).

    alpha <= beta componentwise iff ((code(beta) | H) - code(alpha)) & H
    == H.  Proof: while every entry and both degrees are < 128, byte i < n
    of the difference is beta_i + 128 - alpha_i and byte n is
    |beta| + 128 - |alpha|; each lies in 1..255, so no byte borrows from
    the next.  The high bit of byte i < n is set iff beta_i >= alpha_i, and
    that of byte n is set whenever every beta_i >= alpha_i, since then
    |beta| >= |alpha|.  Every entry is at most the degree, so the view
    refuses a degree >= 127 with a ValueError; below that, the unit steps
    have entries and degrees < 128 too.

    The order facts come from bitsets over a box (`_Box`): the staircase
    box of S_n, radix_i = n - i + 1, or, for a set that leaves it, the box
    grown per coordinate to radix_i = max(n - i + 1, top_i + 1), top_i the
    largest i-th entry.  P is the set's bitset, T that of its top degree.

    - For a set X in the box, (X >> w_i) & M_i = {alpha : alpha + e_i in
      X}, the -e_i step inside the box.  Bit k of X >> w_i is bit k + w_i
      of X.  Where alpha_i < radix_i - 1, that is k in M_i,
      k + w_i = k(alpha + e_i).  Where alpha_i = radix_i - 1, alpha + e_i
      is outside the box and in no X, and M_i clears bit k, whose k + w_i
      carries into digit i + 1 or past the box.  Likewise
      (X & M_i) << w_i = {alpha + e_i : alpha in X, alpha + e_i in the
      box}.
    - D, the down-closure of P, is P after radix_i - 1 rounds of
      D |= (D >> w_i) & M_i for each i in turn.  By induction, after the
      rounds of coordinates 1..i, D holds the points beta with
      beta_j <= alpha_j for j <= i and beta_j = alpha_j for j > i, for some
      alpha in P: each round of coordinate i lowers it by one more, and
      alpha_i <= radix_i - 1.  At i = n that is the down-closure.
    - uncovered = P & ~T & ~U, for U the union over i of (P >> w_i) & M_i,
      the points with a unit step in P: conj2's definition, read off.
    - alpha in P is maximal iff no alpha + e_i is in D.  If beta in P
      exceeds alpha, then alpha + e_i <= beta for some i; and
      alpha + e_i <= beta in P puts beta above alpha.  A point with a unit
      step in P is not maximal and every top-degree point is, so
      low_maxima = uncovered & ~S, for S the union over i of
      (D >> w_i) & M_i.
    - missing = (union over i of (P & M_i) << w_i) & D & ~P: the steps of
      points of P that lie below a point of P, hence below a maximum, and
      are not in P."""

    __slots__ = (
        "n", "codes", "degree", "high", "top_codes", "uncovered", "maxima", "low_maxima",
        "missing",
    )

    def __init__(self, vectors, n: int):
        self.codes = list(map(codes.__getitem__, vectors))
        top = max(self.codes, default=0) >> 8 * n
        if top >= 127:
            raise ValueError(f"degree {top} is too large for the packed support view (< 127)")
        bottom = top << 8 * n  # the least code of the top degree
        self.top_codes = sorted(c for c in self.codes if c >= bottom)
        radix = tuple(range(n, 0, -1))  # the staircase: alpha_i <= n - i
        try:
            box = _boxes[radix]
            P = box.bits(self.codes)
        except _OutsideBox:
            tops = map(max, zip(*(decode(c, n) for c in self.codes)))
            box = _boxes[tuple(max(r, t + 1) for r, t in zip(radix, tops))]
            P = box.bits(self.codes)
        steps = box.steps
        U = 0
        for w, mask in steps:
            U |= P >> w & mask
        uncovered = P & ~(box.bits(self.top_codes) | U)
        D = P
        for r, (w, mask) in zip(box.radix, steps):
            for _ in range(r - 1):
                D |= D >> w & mask
        low = 0
        if uncovered:
            S = 0
            for w, mask in steps:
                S |= D >> w & mask
            low = uncovered & ~S
        missing = 0
        for w, mask in steps:
            missing |= (P & mask) << w
        self.n, self.degree = n, top
        self.high = int.from_bytes(b"\x80" * (n + 1), "little")
        self.uncovered, self.low_maxima = box.codes_in(uncovered), box.codes_in(low)
        self.maxima = self.top_codes + self.low_maxima
        self.missing = box.codes_in(missing & D & ~P)


# The view of the last polynomial asked for, with a strong reference to that
# polynomial, so that `is` cannot match a recycled id: the checks of one
# permutation share one build.  (`functools.lru_cache` would hash every term.)
_last_view: tuple = (None, None)


def support_view(f: Poly) -> _SupportView:
    """The packed view of supp f, with `codes` in the order of `f.terms`;
    kept for the last polynomial asked for.  The zero polynomial has no
    support and is refused with a ValueError."""
    global _last_view
    source, view = _last_view
    if source is not f:
        if not f.terms:
            raise ValueError("the zero polynomial has no support")
        view = _SupportView(f.terms, f.nvars)
        _last_view = (f, view)
    return view


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


def recursion_parent(w: tuple) -> Optional[Tuple[int, tuple]]:
    """The step of the recursion (Lascoux-Schützenberger) that gives w:
    (j, w.s_j) for j the first ascent of w, with 𝔊_w = π_j 𝔊_{w.s_j} and
    𝔖_w = ∂_j 𝔖_{w.s_j}; None for w_0, which has no ascent and whose
    polynomial is the staircase monomial.  The parent w.s_j is one longer
    than w."""
    ascents = perms.ascents(w)
    return (ascents[0], perms.apply_s(w, ascents[0])) if ascents else None


def build_table(n: int, flavor: str) -> PolynomialTable:
    """Compute the full table for S_n.

    Every w != w_0 has a parent (`recursion_parent`) one longer than w, so
    processing permutations in decreasing length order finds each parent
    already done.  Equal exponent vectors in the table are one shared tuple
    (S_n has at most n! distinct ones, the points of the staircase box).
    """
    parts = _PLAIN if flavor == "S" else _ISOBARIC
    top = staircase_monomial(n)
    vectors = {e: e for e in top.terms}
    polys: Dict[tuple, Poly] = {perms.longest_element(n): top}
    by_length = sorted(perms.all_perms(n), key=perms.length, reverse=True)
    for w in by_length[1:]:
        j, parent = recursion_parent(w)
        polys[w] = _closed_form(polys[parent], j, parts, vectors)
    return PolynomialTable(n, flavor, polys)
