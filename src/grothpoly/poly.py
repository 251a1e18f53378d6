"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials: the independent computation of the tables that
`cache.load_or_build` builds from pipe dreams.  The oracle check applies
one step of the recursion (`recursion_parent`) to the pipe-dream 𝔊 table
per permutation; `build_table` runs the whole recursion, and the tests
compare its tables with the pipe dreams.

A polynomial is a finite map from exponent codes to nonzero integer
coefficients.  The code of an exponent vector alpha of length n is one
integer: one byte per coordinate, x_1 lowest, and the degree above them,
code(alpha) = sum of alpha_i 256^(i-1) + |alpha| 256^n (`code`; a vector
with an entry outside 0..255 has none).  `decode` masks off the degree.
While every entry is < 256 no byte carries, so the code of a sum is the sum
of the codes, alpha + e_i is code(alpha) + 256^(i-1) + 256^n, the degree
is code >> 8n, and the numeric order of the codes is degree, then the
canonical term order (compare the exponent of x_n first, then x_{n-1}, and
so on: a term order with x_1 < x_2 < ... < x_n); with the degree masked off
it is term order alone.  Every exponent of a polynomial here lies in the
staircase box of S_n, entries < n, so the bound holds for n <= 256.  All
arithmetic is exact; the divided differences are written in closed form,
one monomial at a time, on codes.  `Poly` stores the terms it is given,
which the program builds itself; terms from outside enter only through
`parse_text` (behind the cache reader), which checks them.  Exponent
vectors appear only where a person reads them: witnesses, `to_text` and
`support`.

`support_view` packs one support as a bitset with its top degree, maxima,
elements with no unit step up or down, and the unit steps conj3 finds
missing; every check that reads a support reads that view, built once per
polynomial (`perms.last_call`).

The view finds those order facts with a second encoding, a bitset over a
box.  Every exponent of 𝔊_w for w in S_n lies in the staircase box
alpha_i <= n - i, because row i of a pipe dream has n - i cells; that box
has n! points, and it is the only box (`_Box`): a point outside it is
refused with a ValueError that names it, and the cache reader refuses such
a vector where it enters (`parse_text`).  The box numbers its points
k(alpha) = sum of alpha_i w_i, with radix r_i = n - i + 1, w_1 = 1 and
w_{i+1} = w_i r_i: the digits of k in mixed radix are alpha, x_n the most
significant, so index order is term order.  A set of points is one
integer, with bit k(alpha) set for each alpha in it, and a unit step of a
whole set is one shift by w_i and one mask (`_SupportView` has the proofs).
Boxes of more than 10! points, the staircase box of S_10, are refused with
a ValueError: at n >= 11 the view refuses every support.
"""
from __future__ import annotations

import functools
import math
from operator import ge, mul
from typing import Dict, Optional, Tuple

from . import perms

# Counts divided-difference applications in this process.  The oracle
# applies one per step of the recursion it checks: n! - 1 over a full sweep,
# at most n(n-1)/2 for one --perm.  A forked worker counts in its own copy.
OPERATOR_APPLICATIONS = 0


class Poly:
    """Immutable exact sparse polynomial in nvars variables: `terms` maps
    the code of each exponent vector (see the module docstring) to its
    nonzero coefficient."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Dict[int, int], nvars: int):
        self.terms = terms
        self.nvars = nvars

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def support(self) -> frozenset:
        """The exponent vectors of the terms."""
        n = self.nvars
        return frozenset(decode(c, n) for c in self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self.terms) >> 8 * self.nvars

    def principal_specialization(self) -> int:
        """Evaluate at x_1 = ... = x_n = 1, i.e. sum all coefficients."""
        return sum(self.terms.values())

    def to_text(self, texts: Optional[Dict[int, str]] = None) -> str:
        """Canonical text form: `coeff:e1,...,en` joined by `;`, in term
        order, the order of the codes with the degree masked off.

        `texts` maps a code to the text of its vector and grows as new codes
        are seen, as `parse_text`'s `codes` does the other way: a writer
        that passes one dict per table decodes each distinct code once.
        Without it, a fresh dict is used."""
        if texts is None:
            texts = {}
        n, terms = self.nvars, self.terms
        chunks = []
        for c in sorted(terms, key=((1 << 8 * n) - 1).__and__):
            text = texts.get(c)
            if text is None:
                text = texts[c] = ",".join(map(str, decode(c, n)))
            chunks.append(f"{terms[c]}:{text}")
        return ";".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r}, nvars={self.nvars})"


def code(alpha: tuple) -> int:
    """code(alpha) (see the module docstring).  A vector with an entry
    outside 0..255, negative ones included, has no code and is refused with
    a ValueError that names it."""
    try:
        low = int.from_bytes(bytes(alpha), "little")
    except ValueError:
        raise ValueError(f"{alpha} has an entry outside 0..255 and no code") from None
    return low + (sum(alpha) << 8 * len(alpha))


def decode(code: int, n: int) -> tuple:
    """The exponent vector of length n with this code."""
    return tuple((code & ((1 << 8 * n) - 1)).to_bytes(n, "little"))


def _staircase_point(alpha: tuple, n: int) -> tuple:
    """alpha, if it lies in the staircase box of S_n (`_Box`); otherwise a
    ValueError that names it."""
    if len(alpha) != n or min(alpha, default=0) < 0 or any(map(ge, alpha, range(n, 0, -1))):
        raise ValueError(f"{alpha} lies outside the staircase box of S_{n}")
    return alpha


# Points of the largest box the bitset layer builds: 10!, the staircase box
# of S_10.  The staircase box of S_11 has 39 916 800.
MAX_BOX = math.factorial(10)


def _repeat(block: int, period: int, size: int) -> int:
    """The size-bit integer whose every period-bit word, from bit 0 up, is
    block; period divides size.  Eight words at most are joined by shifts,
    to a whole number of bytes, and the bytes are repeated."""
    unit = math.lcm(period, 8)
    word = sum(block << j for j in range(0, unit, period))
    data = word.to_bytes(unit // 8, "little") * -(-size // unit)
    return int.from_bytes(data, "little") & ((1 << size) - 1)


class _Box(dict):
    """The staircase box of S_n: the exponent vectors alpha with
    0 <= alpha_i < radix_i = n - i + 1, its points numbered
    k(alpha) = sum of alpha_i w_i, with w_1 = 1 and w_{i+1} = w_i radix_i
    (see the module docstring).  A set of points is the integer with bit
    k(alpha) set for each alpha in it.

    As a dict it maps code(alpha) to (byte, bit), the place of bit k(alpha)
    in a little-endian bytearray, filled once per distinct code; a code
    outside the box raises a ValueError that names its point.
    `steps` holds (w_i, M_i) for each coordinate, where M_i is the set of
    points alpha with alpha_i < radix_i - 1: one block of w_i radix_i bits,
    its low w_i (radix_i - 1) bits set, repeated over the box.  A box of
    more than MAX_BOX points is refused with a ValueError.

    `grade(d)` is G_d, the points of degree d, built when first asked for:
    G_0 = {0} and G_d = union over i of (G_{d-1} & M_i) << w_i, since a
    point of degree d >= 1 is alpha + e_i for alpha of degree d - 1 and any
    i with a nonzero entry, and then alpha_i < radix_i - 1.

    `at_most(i, b)` is the set of the points with alpha_{i+1} <= b, for
    0 <= b < radix_{i+1}, built once per (i, b); M_i is
    `at_most(i - 1, radix_i - 2)`.

    `codes_of(bits)` decodes a set to codes with two tables, built when
    first asked for: a point's index is k = l + W h, with W = w_{m+1} the
    product of the first m radices, l < W the index of its first m
    coordinates and h that of the rest, and its code is the sum of the
    codes of those two parts, low[l] + high[h].  m is the least with
    W^2 >= n!, so both tables are short."""

    def __init__(self, n: int):
        super().__init__()
        radix, size = tuple(range(n, 0, -1)), math.factorial(n)
        if size > MAX_BOX:
            raise ValueError(
                f"the staircase box of S_{n} has {size} points, more than the {MAX_BOX} "
                "the bitset view builds"
            )
        self.radix, self.weights, self.size = radix, [math.perm(n, i) for i in range(n)], size
        self.columns: Dict[Tuple[int, int], int] = {}
        self.steps = [(w, self.at_most(i, r - 2)) for i, (w, r) in enumerate(zip(self.weights, radix))]
        self.grades = [1]
        self.split: Optional[tuple] = None

    def __missing__(self, code: int) -> tuple:
        alpha = _staircase_point(decode(code, len(self.radix)), len(self.radix))
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

    def at_most(self, i: int, b: int) -> int:
        """The set of the points with alpha_{i+1} <= b: one block of
        w radix bits per value of the coordinates above, its low w (b + 1)
        bits set."""
        column = self.columns.get((i, b))
        if column is None:
            w, r = self.weights[i], self.radix[i]
            column = self.columns[i, b] = _repeat((1 << w * (b + 1)) - 1, w * r, self.size)
        return column

    def codes_of(self, bits: int) -> list:
        """The codes of the points of a set, in index order."""
        if self.split is None:
            n = len(self.radix)
            m = next(m for m, w in enumerate(self.weights) if w * w >= self.size)
            low, high = [0], [0]
            for i, r in enumerate(self.radix):
                unit = 1 << 8 * i | 1 << 8 * n
                part = low if i < m else high
                part[:] = [c + a * unit for a in range(r) for c in part]
            self.split = (self.weights[m], low, high)
        W, low, high = self.split
        out = []
        digits = format(bits, "b")[::-1]  # digits[k] is bit k
        k = digits.find("1")
        while k >= 0:
            h, l = divmod(k, W)
            out.append(low[l] + high[h])
            k = digits.find("1", k + 1)
        return out

    def points(self, bits: int) -> list:
        """The points of a set, in index order."""
        n = len(self.radix)
        return [decode(c, n) for c in self.codes_of(bits)]

    def codes_in(self, bits: int) -> list:
        """The codes of the points in a set, in degree, then term order."""
        return sorted(self.codes_of(bits))

    def grade(self, d: int) -> int:
        """G_d, the set of the points of degree d."""
        grades = self.grades
        while len(grades) <= d:
            G = 0
            for w, mask in self.steps:
                G |= (grades[-1] & mask) << w
            grades.append(G)
        return grades[d]


@functools.cache
def _boxes(n: int) -> _Box:
    """The staircase box of S_n, built once per n."""
    return _Box(n)


class _SupportView:
    """Packed facts about a set of exponent vectors in the staircase box of
    S_n, given as a collection of their codes (`_Box`; any other vector is
    refused with a ValueError that names it):

    - `box`: that box;
    - `bits`: P, the set as a bitset over the box;
    - `degree`: the top degree;
    - `high`: H, the mask with 0x80 in each of the n + 1 bytes;
    - `top_codes`: the codes of the top degree, in term order;
    - `uncovered`: the codes below the top degree with no unit step in the
      set, in degree, then term order;
    - `low_maxima`: the maximal codes below the top degree, in degree, then
      term order;
    - `lower`: the points of P with no unit step down in P, as a bitset
      (conj4);
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
    |beta| >= |alpha|.  The box exists only for n <= 10 (MAX_BOX), so every
    entry is at most 9 and every degree at most 45, and the unit steps have
    entries at most 10 and degrees at most 46: the identity always holds.

    The order facts come from bitsets over the box, radix_i = n - i + 1.
    T = P & G_top is the bitset of the top degree (`_Box.grade`).

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
    - With A the union over i of (P & M_i) << w_i, the unit steps up from
      P, lower = P & ~A, and missing = A & D & ~P: the steps of points of P
      that lie below a point of P, hence below a maximum, and are not in
      P."""

    __slots__ = (
        "n", "box", "bits", "degree", "high", "top_codes", "uncovered", "maxima",
        "low_maxima", "lower", "missing",
    )

    def __init__(self, codes, n: int):
        box = self.box = _boxes(n)
        P = self.bits = box.bits(codes)
        top = max(codes, default=0) >> 8 * n
        bottom = top << 8 * n  # the least code of the top degree
        self.top_codes = sorted(c for c in codes if c >= bottom)
        steps = box.steps
        U = 0
        for w, mask in steps:
            U |= P >> w & mask
        uncovered = P & ~(box.grade(top) | U)
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
        above = 0
        for w, mask in steps:
            above |= (P & mask) << w
        self.n, self.degree, self.lower = n, top, P & ~above
        self.high = int.from_bytes(b"\x80" * (n + 1), "little")
        self.uncovered, self.low_maxima = box.codes_in(uncovered), box.codes_in(low)
        self.maxima = self.top_codes + self.low_maxima
        self.missing = box.codes_in(above & D & ~P)


@perms.last_call
def support_view(f: Poly) -> _SupportView:
    """The packed view of supp f.  The zero polynomial has no support and is
    refused with a ValueError."""
    if not f.terms:
        raise ValueError("the zero polynomial has no support")
    return _SupportView(f.terms, f.nvars)


# Deletes what the numbers of a canonical text are made of, leaving the
# separators (`parse_text`).
_NUMERALS = dict.fromkeys(map(ord, "0123456789,-"))


def parse_text(text: str, nvars: int, codes: Dict[str, int]) -> Poly:
    """Parse the canonical text form `coeff:e1,...,en;...` into a Poly.

    `codes` maps exponent text to its code and grows as new texts are seen:
    each distinct vector is converted and checked (in the staircase box of
    S_nvars, see `_Box`) once per table, and every polynomial parsed against
    the same table shares that one int.  The text is split once on both
    separators, and what is not a digit, comma or minus sign must be those
    separators, `:` and `;` alternating, so each term has one colon.  The
    polynomial as a whole must have nonzero coefficients and no repeated
    exponent.  The empty text is the zero polynomial.
    """
    if not text:
        return Poly({}, nvars)
    parts = text.replace(";", ":").split(":")
    coeffs, keys = parts[0::2], parts[1::2]
    if text.translate(_NUMERALS) != ":" + ";:" * (len(keys) - 1):
        raise ValueError("terms are not of the form coeff:e1,...,en joined by ';'")
    try:
        terms = dict(zip(map(codes.__getitem__, keys), map(int, coeffs)))
    except KeyError:
        for key in keys:
            if key not in codes:
                codes[key] = code(_staircase_point(tuple(map(int, key.split(","))), nvars))
        terms = dict(zip(map(codes.__getitem__, keys), map(int, coeffs)))
    if len(terms) != len(keys):
        raise ValueError(f"repeated exponent: {len(keys)} terms, {len(terms)} exponents")
    if 0 in terms.values():
        zero = next(e for e, c in terms.items() if c == 0)
        raise ValueError(f"zero coefficient stored at {decode(zero, nvars)}")
    return Poly(terms, nvars)


# The (lift, sign) parts of d_j, the 𝔖 step of `build_table`, and of the
# isobaric operator (see `_closed_form`).
_PLAIN = ((0, 1),)
_ISOBARIC = ((0, 1), (1, -1))


def isobaric_divided_difference(f: Poly, j: int) -> Poly:
    """The operator f -> d_j((1 - x_{j+1}) f), for d_j the divided
    difference (f - s_j.f) / (x_j - x_{j+1}), that is d_j f - d_j(x_{j+1} f),
    both parts in the same pass over f (see `_closed_form`)."""
    return _closed_form(f, j, _ISOBARIC)


def _closed_form(f: Poly, j: int, parts: tuple) -> Poly:
    """The sum of sign * d_j(x_{j+1}^lift f) over the (lift, sign) pairs in
    parts, in one pass over the monomials of f.

    With a, b the exponents of x_j, x_{j+1}, the divided difference of
    x_j^a x_{j+1}^b is the sum of x_j^p x_{j+1}^{a+b-1-p} over
    min(a, b) <= p < max(a, b), negated when a < b (so 0 when a = b).

    On codes, a and b are bytes j - 1 and j of the code; every output term
    has degree |alpha| - 1 + lift, and the next p adds 256^(j-1) - 256^j to
    the code.  The entries of the result must stay below 256, as every
    exponent in the staircase box does.
    """
    global OPERATOR_APPLICATIONS
    OPERATOR_APPLICATIONS += 1
    n = f.nvars
    if not 1 <= j <= n - 1:
        raise ValueError(f"operator index {j} out of range for nvars={n}")
    shift = 8 * (j - 1)
    unit_j, unit_next, unit_degree = 1 << shift, 1 << shift + 8, 1 << 8 * n
    step = unit_j - unit_next
    out: Dict[int, int] = {}
    get = out.get
    for expo, coeff in f.terms.items():
        a, b0 = expo >> shift & 0xFF, expo >> shift + 8 & 0xFF
        for lift, sign in parts:
            b = b0 + lift
            if a > b:
                p, count, c = b, a - b, sign * coeff
            elif a < b:
                p, count, c = a, b - a, -sign * coeff
            else:
                continue
            # x_j^p x_{j+1}^{a+b-1-p}, one degree below x_j^a x_{j+1}^b.
            e = expo + (p - a) * unit_j + (a + b - 1 - p - b0) * unit_next + (lift - 1) * unit_degree
            for _ in range(count):
                out[e] = get(e, 0) + c
                e += step
    return Poly({e: c for e, c in out.items() if c}, n)


def staircase_monomial(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the w_0 base case."""
    return Poly({code(tuple(range(n - 1, -1, -1))): 1}, n)


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
    already done.  Equal codes in the table are one shared int (S_n has at
    most n! distinct ones, the points of the staircase box).
    """
    parts = _PLAIN if flavor == "S" else _ISOBARIC
    top = staircase_monomial(n)
    codes = {e: e for e in top.terms}
    polys: Dict[tuple, Poly] = {perms.longest_element(n): top}
    by_length = sorted(perms.all_perms(n), key=perms.length, reverse=True)
    for w in by_length[1:]:
        j, parent = recursion_parent(w)
        terms = _closed_form(polys[parent], j, parts).terms
        polys[w] = Poly({codes.setdefault(e, e): c for e, c in terms.items()}, n)
    return PolynomialTable(n, flavor, polys)
