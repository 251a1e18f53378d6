"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials, the engine of every verify and print run.  Each w != w_0 has
one parent in the recursion (`recursion_parent`), so S_n is a tree rooted
at w_0, the first-ascent tree: `walk` goes down a subtree depth first with
one operator call per edge and holds only its stack, and `grothendieck`
goes down the one path from w_0 to w.  `build_table` collects the walk of
all of S_n, the tests' reference table, which they compare with the pipe
dreams of `cache.load_or_build`.

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
arithmetic is exact; the divided differences are written in closed form
on codes, with move tables: per (n, j), a table maps the bytes of x_j and
x_{j+1} in a code to the code offsets and multipliers of the output terms,
so a monomial costs one lookup and one update per output (`_Moves`).
`Poly` stores the terms it is given, which the program builds itself;
terms from outside enter only through `parse_text` (behind the cache
reader), which checks them.  Exponent
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
from typing import Callable, Dict, Iterator, Optional, Tuple

from . import perms

# Counts divided-difference applications in this process: one per edge of
# the walk or the chain, and one per oracle check of a w != w_0.  A forked
# worker counts in its own copy.
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

    `up(X)` is the union over i of (X & M_i) << w_i, the unit steps
    alpha + e_i in the box of the points of X, and `down(X)` the union over
    i of (X >> w_i) & M_i, the points with a unit step in X
    (`_SupportView` has the proofs).

    `grade(d)` is G_d, the points of degree d, built when first asked for:
    G_0 = {0} and G_d = up(G_{d-1}), since a point of degree d >= 1 is
    alpha + e_i for alpha of degree d - 1 and any i with a nonzero entry,
    and then alpha_i < radix_i - 1.

    `at_most(i, b)` is the set of the points with alpha_{i+1} <= b, for
    0 <= b < radix_{i+1}, built once per (i, b); M_i is
    `at_most(i - 1, radix_i - 2)`.

    `sums_of(bits, tables)` maps each point of a set to a linear function
    of it, sum of alpha_i u_i, with two tables (`split_sums(units)`): a
    point's index is k = l + W h, with W = w_{m+1} the product of the first
    m radices, l < W the index of its first m coordinates and h that of the
    rest, and the sum is that of those two parts, low[l] + high[h].  m is
    the least with W^2 >= n!, so both tables are short.  `codes_of` is
    `sums_of` with u_i = code(e_i), whose tables are built when first asked
    for; `code_at(k)` is one lookup in them."""

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

    def split_sums(self, units) -> tuple:
        """The tables (low, high) of `sums_of` for the sum of
        alpha_i units[i]: low[l] is its part over the first m coordinates of
        the point with index l < W, high[h] its part over the rest of the
        point with index h W."""
        m = next(m for m, w in enumerate(self.weights) if w * w >= self.size)
        low, high = [0], [0]
        for i, (r, unit) in enumerate(zip(self.radix, units)):
            part = low if i < m else high
            part[:] = [c + a * unit for a in range(r) for c in part]
        return low, high

    @functools.cached_property
    def code_tables(self) -> tuple:
        """The tables of `codes_of`, u_i = code(e_i)."""
        n = len(self.radix)
        return self.split_sums([1 << 8 * i | 1 << 8 * n for i in range(n)])

    def sums_of(self, bits: int, tables: tuple) -> list:
        """low[l] + high[h] for each point k = l + W h of a set, in index
        order, for tables (low, high) from `split_sums`."""
        low, high = tables
        W = len(low)
        out = []
        digits = format(bits, "b")[::-1]  # digits[k] is bit k
        k = digits.find("1")
        while k >= 0:
            h, l = divmod(k, W)
            out.append(low[l] + high[h])
            k = digits.find("1", k + 1)
        return out

    def codes_of(self, bits: int) -> list:
        """The codes of the points of a set, in index order."""
        return self.sums_of(bits, self.code_tables)

    def code_at(self, k: int) -> int:
        """The code of the point with index k."""
        low, high = self.code_tables
        h, l = divmod(k, len(low))
        return low[l] + high[h]

    def points(self, bits: int) -> list:
        """The points of a set, in index order."""
        n = len(self.radix)
        return [decode(c, n) for c in self.codes_of(bits)]

    def up(self, X: int) -> int:
        """The unit steps alpha + e_i inside the box of the points of X."""
        out = 0
        for w, mask in self.steps:
            out |= (X & mask) << w
        return out

    def down(self, X: int) -> int:
        """The points alpha with a unit step alpha + e_i in X."""
        out = 0
        for w, mask in self.steps:
            out |= X >> w & mask
        return out

    def grade(self, d: int) -> int:
        """G_d, the set of the points of degree d."""
        grades = self.grades
        while len(grades) <= d:
            grades.append(self.up(grades[-1]))
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

    and, each as a bitset over the box:

    - `uncovered`: the points below the top degree with no unit step in P
      (conj2);
    - `low_maxima`: the maximal points below the top degree (conj1);
    - `lower`: the points of P with no unit step down in P (conj4);
    - `maximal`: the maximal points of P, the top degree and `low_maxima`
      (conj3, conj4);
    - `missing`: the unit steps beta = alpha + e_i of the points of P that
      lie below some point of P but not in it (conj3).

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
      box}.  `_Box.down(X)` and `_Box.up(X)` are the unions over i of the
      two.
    - D, the down-closure of P, is P after radix_i - 1 rounds of
      D |= (D >> w_i) & M_i for each i in turn.  By induction, after the
      rounds of coordinates 1..i, D holds the points beta with
      beta_j <= alpha_j for j <= i and beta_j = alpha_j for j > i, for some
      alpha in P: each round of coordinate i lowers it by one more, and
      alpha_i <= radix_i - 1.  At i = n that is the down-closure.
    - uncovered = P & ~T & ~down(P), down(P) the points with a unit step in
      P: conj2's definition, read off.
    - alpha in P is maximal iff no alpha + e_i is in D.  If beta in P
      exceeds alpha, then alpha + e_i <= beta for some i; and
      alpha + e_i <= beta in P puts beta above alpha.  A point with a unit
      step in P is not maximal and every top-degree point is, so
      low_maxima = uncovered & ~down(D).
    - With A = up(P), the unit steps up from P, lower = P & ~A, and
      missing = A & D & ~P: the steps of points of P that lie below a point
      of P, hence below a maximum, and are not in P."""

    __slots__ = (
        "n", "box", "bits", "degree", "high", "uncovered", "maximal", "low_maxima", "lower",
        "missing",
    )

    def __init__(self, codes, n: int):
        box = self.box = _boxes(n)
        P = self.bits = box.bits(codes)
        top = max(codes, default=0) >> 8 * n
        T = P & box.grade(top)
        uncovered = self.uncovered = P & ~(T | box.down(P))
        D = P
        for r, (w, mask) in zip(box.radix, box.steps):
            for _ in range(r - 1):
                D |= D >> w & mask
        # down(D) only when some point is uncovered, which is rare.
        low = self.low_maxima = uncovered and uncovered & ~box.down(D)
        above = box.up(P)
        self.n, self.degree, self.lower = n, top, P & ~above
        self.high = int.from_bytes(b"\x80" * (n + 1), "little")
        self.maximal = T | low
        self.missing = above & D & ~P


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
    exponent.  The empty text, the zero polynomial, is refused: no
    polynomial of a table is zero.
    """
    if not text:
        raise ValueError("empty polynomial; none in a table is zero")
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
    parts, in one pass over the monomials of f: one lookup of the term's
    bytes j - 1 and j in the move table (`_Moves`) and one update per
    output term.  The entries of the result must stay below 256, as every
    exponent in the staircase box does."""
    global OPERATOR_APPLICATIONS
    OPERATOR_APPLICATIONS += 1
    n = f.nvars
    if not 1 <= j <= n - 1:
        raise ValueError(f"operator index {j} out of range for nvars={n}")
    moves, shift = _moves(n, j, parts), 8 * (j - 1)
    out: Dict[int, int] = {}
    get = out.get
    for expo, coeff in f.terms.items():
        for offset, multiplier in moves[expo >> shift & 0xFFFF]:
            e = expo + offset
            out[e] = get(e, 0) + multiplier * coeff
    if 0 in out.values():  # terms that cancelled, in about a fifth of the calls of a sweep
        out = {e: c for e, c in out.items() if c}
    return Poly(out, n)


class _Moves(dict):
    """The move table of `_closed_form` for one (n, j, parts): it maps the
    field a + 256 b, for a and b the exponents of x_j and x_{j+1} (bytes
    j - 1 and j of a code), to the (offset, multiplier) pairs of the
    output: the monomial x^alpha with that field goes to the sum of
    multiplier * x^beta, code(beta) = code(alpha) + offset, over them.
    Offsets that meet are combined and zero multipliers dropped.  Each
    field is filled when first looked up, so any pair of bytes has one.

    A part first multiplies by x_{j+1}^lift: b = b0 + lift for b0 the
    field's exponent of x_{j+1}.  The divided difference of x_j^a x_{j+1}^b
    is the sum of x_j^p x_{j+1}^{a+b-1-p} over min(a, b) <= p < max(a, b),
    negated when a < b (so 0 when a = b), and the other coordinates ride
    along.  On codes, the first p moves byte j - 1 from a to p and byte j
    from b0 to a + b - 1 - p, the degree moves by lift - 1, and each next p
    adds 256^(j-1) - 256^j."""

    def __init__(self, n: int, j: int, parts: tuple):
        super().__init__()
        self.parts = parts
        self.unit_j, self.unit_next, self.unit_degree = 1 << 8 * (j - 1), 1 << 8 * j, 1 << 8 * n

    def __missing__(self, field: int) -> tuple:
        unit_j, unit_next = self.unit_j, self.unit_next
        a, b0 = field & 0xFF, field >> 8
        combined: Dict[int, int] = {}
        for lift, sign in self.parts:
            b = b0 + lift
            p, c = min(a, b), sign if a > b else -sign
            offset = (p - a) * unit_j + (a + b - 1 - p - b0) * unit_next
            offset += (lift - 1) * self.unit_degree
            for _ in range(abs(a - b)):
                combined[offset] = combined.get(offset, 0) + c
                offset += unit_j - unit_next
        moves = self[field] = tuple((e, c) for e, c in combined.items() if c)
        return moves


@functools.cache
def _moves(n: int, j: int, parts: tuple) -> _Moves:
    """The move table of d_j's parts on polynomials in n variables, one per
    (n, j, parts)."""
    return _Moves(n, j, parts)


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


def first_ascent_children(v: tuple) -> list:
    """The steps (j, v.s_j) whose `recursion_parent` is (j, v).  With r the
    length of v's initial decreasing run, v(1) > ... > v(r) and r = n or
    v(r) < v(r+1), they are j = 1 .. r - 1, and j = r + 1 when
    r + 1 <= n - 1 and v(r) > v(r+2).

    Proof: w = v.s_j has first ascent j and parent v exactly when
    v(j) > v(j+1) and w(1) > ... > w(j).  For j < r both hold, the second
    because w(j - 1) = v(j - 1) > v(j + 1) = w(j).  j = r is no descent of
    v.  For j >= r + 2, w agrees with v at r and r + 1, an ascent before j.
    For j = r + 1, w(r+1) = v(r+2), so w(1) > ... > w(r+1) iff
    v(r) > v(r+2), which with v(r) < v(r+1) makes r + 1 a descent of v."""
    n, r = len(v), 1
    while r < n and v[r - 1] > v[r]:
        r += 1
    js = list(range(1, r))
    if r + 1 <= n - 1 and v[r - 1] > v[r + 1]:
        js.append(r + 1)
    return [(j, v[: j - 1] + (v[j], v[j - 1]) + v[j + 1 :]) for j in js]


def walk(v: tuple, f: Poly, step: Callable[[Poly, int], Poly]) -> Iterator[Tuple[tuple, Poly]]:
    """(v, f), then (w, step(f_u, j)) for each w below v in the first-ascent
    tree, depth first, with (j, u) = `recursion_parent(w)` and f_u what u
    came with: (w, 𝔊_w) for f = 𝔊_v and step = π.  One step per edge.  The
    stack holds the children still to visit beside their parent's
    polynomial: at most one polynomial per level of the current path."""
    yield v, f
    stack = [(f, j, w) for j, w in first_ascent_children(v)]
    while stack:
        parent, j, w = stack.pop()
        g = step(parent, j)
        yield w, g
        stack += [(g, k, u) for k, u in first_ascent_children(w)]


def grothendieck(w: tuple) -> Poly:
    """𝔊_w down its first-ascent chain: the staircase monomial at w_0, then
    π_j along each step of `recursion_parent` from w_0 to w, that is
    l(w_0) - l(w) <= n(n-1)/2 operator calls."""
    step = recursion_parent(w)
    if step is None:
        return staircase_monomial(len(w))
    return isobaric_divided_difference(grothendieck(step[1]), step[0])


def build_table(n: int, flavor: str) -> PolynomialTable:
    """The full table for S_n: the walk of the whole first-ascent tree from
    the staircase monomial at w_0, with ∂_j (𝔖) or π_j (𝔊).  Equal codes in
    the table are one shared int (S_n has at most n! distinct ones, the
    points of the staircase box)."""
    plain = functools.partial(_closed_form, parts=_PLAIN)
    step = isobaric_divided_difference if flavor == "G" else plain
    codes: Dict[int, int] = {}
    polys = {
        w: Poly({codes.setdefault(e, e): c for e, c in g.terms.items()}, n)
        for w, g in walk(perms.longest_element(n), staircase_monomial(n), step)
    }
    return PolynomialTable(n, flavor, polys)
