"""
Exact sparse multivariate polynomials over the integers, divided-difference
operators, and the weak-order recursion for Schubert and Grothendieck
polynomials, the engine of every verify and print run.  Each w != w_0 has
one parent in the recursion (`recursion_parent`), so S_n is a tree rooted
at w_0, the first-ascent tree: `walk` goes down a subtree depth first with
one operator call per edge and holds only its stack, and `grothendieck`
goes down the one path from w_0 to w.  `build_table` collects the walk of
all of S_n, the tests' reference table, which they compare with the pipe
dreams (`pipedreams.pd_polynomial_all`).

A polynomial is a finite map from exponent keys to nonzero integer
coefficients.  Every exponent of 𝔊_w for w in S_n lies in the staircase
box alpha_i <= n - i, because row i of a pipe dream has n - i cells, and
the operators of the recursion keep every monomial of the box inside it
(`_moves`).  The box has n! points, numbered
k(alpha) = sum of alpha_i w_i, with radix r_i = n - i + 1, w_1 = 1 and
w_{i+1} = w_i r_i, so w_i = n!/(n - i + 1)!: the digits of k in mixed
radix are alpha, x_n the most significant, so index order is the canonical
term order (compare the exponent of x_n first, then x_{n-1}, and so on: a
term order with x_1 < x_2 < ... < x_n).  The key of alpha is its graded
staircase index kappa(alpha) = |alpha| n! + k(alpha) (`code`; a vector
outside the box has none, and `decode` inverts it).  So the degree is
kappa // n!, term order is kappa mod n!, and the numeric order of the keys
is degree, then term order.  Up to n = 10 every key is below 46 * 10!,
less than 2^30: one digit of a Python int.  A unit step alpha + e_i inside
the box is kappa(alpha) + w_i + n!.  An integer whose degree part
kappa // n! is not the digit sum of kappa mod n! is no key: a step that
leaves the box shows so, since a digit that carries or borrows moves the
digit sum and the degree part apart (`posets.VectorPoset.covers`,
`posets.mobius`).

All arithmetic is exact; the divided differences are written in closed
form on keys, with move tables: per (n, j), a list maps the digits of x_j
and x_{j+1}, kappa // w_j mod r_j r_{j+1}, to the key offsets and
multipliers of the output terms, so a monomial costs one lookup and one
update per output (`_moves`).  `Poly` stores the terms it is given, which
the program builds itself; terms from outside enter only through
`parse_text` (behind the cache reader), which checks them.  Exponent
vectors appear only where a person reads them: witnesses, `to_text` and
`support`.

`support_view` packs one support as a bitset with its top degree, maxima,
elements with no unit step up or down, and the unit steps conj3 finds
missing; every check that reads a support reads that view, built once per
polynomial (`perms.last_call`).  A set of points is one integer, with bit
k(alpha) set for each alpha in it, and a unit step of a whole set is one
shift by w_i and one mask (`_SupportView` has the proofs).  The box
(`_Box`) maps a key to its bit k = kappa mod n!, and refuses with a
ValueError that names it an integer that is no key; the cache reader
refuses a vector outside the box where it enters (`parse_text`).  Boxes of
more than 10! points, the staircase box of S_10, are refused with a
ValueError: at n >= 11 the view refuses every support.
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
    the key of each exponent vector (`code`, see the module docstring) to
    its nonzero coefficient."""

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
        return max(self.terms) // math.factorial(self.nvars)

    def principal_specialization(self) -> int:
        """Evaluate at x_1 = ... = x_n = 1, i.e. sum all coefficients."""
        return sum(self.terms.values())

    def to_text(self) -> str:
        """Canonical text form: `coeff:e1,...,en` joined by `;`, in term
        order, the order of the keys mod n!."""
        n, terms = self.nvars, self.terms
        return ";".join(
            f"{terms[c]}:{','.join(map(str, decode(c, n)))}"
            for c in sorted(terms, key=math.factorial(n).__rmod__)
        )

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r}, nvars={self.nvars})"


def code(alpha: tuple) -> int:
    """kappa(alpha), the key of alpha (see the module docstring).  A vector
    outside the staircase box of S_n, n its length, has no key and is
    refused with a ValueError that names it."""
    n = len(alpha)
    _staircase_point(alpha, n)
    return sum(alpha) * math.factorial(n) + sum(map(mul, alpha, _weights(n)))


def decode(key: int, n: int) -> tuple:
    """The exponent vector of length n with this key: the mixed-radix
    digits of key mod n!, x_1 lowest.  An integer whose degree part
    key // n! is not their sum is no key and is refused with a ValueError
    that names it."""
    degree, k = divmod(key, math.factorial(n))
    alpha = []
    for radix in range(n, 0, -1):
        k, digit = divmod(k, radix)
        alpha.append(digit)
    if sum(alpha) != degree:
        raise ValueError(
            f"{key} is no key of S_{n}: its degree part is {degree}, its digit sum {sum(alpha)}"
        )
    return tuple(alpha)


@functools.cache
def _weights(n: int) -> tuple:
    """w_1, ..., w_n, the place values of the staircase box of S_n:
    w_i = n!/(n - i + 1)!, the product of the first i - 1 radices."""
    return tuple(math.perm(n, i) for i in range(n))


@functools.cache
def _unit_keys(n: int) -> tuple:
    """code(e_i) = w_i + n! for i = 1, ..., n: a unit step alpha + e_i
    inside the staircase box adds code(e_i) to the key."""
    unit = math.factorial(n)
    return tuple(w + unit for w in _weights(n))


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

    As a dict it maps the key kappa(alpha) to (byte, bit, packed): the
    place of bit k = kappa mod n! in a little-endian bytearray, and the
    byte form of alpha, one byte per coordinate, x_1 lowest, with which
    `_SupportView` tests componentwise order.  It is filled once per
    distinct key; an integer whose degree part kappa // n! is not the digit
    sum of k is no key and raises a ValueError that names it (`decode`).
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
    `sums_of` with u_i = code(e_i) = w_i + n!, whose tables are built when
    first asked for; `code_at(k)` is one lookup in them."""

    def __init__(self, n: int):
        super().__init__()
        radix, size = tuple(range(n, 0, -1)), math.factorial(n)
        if size > MAX_BOX:
            raise ValueError(
                f"the staircase box of S_{n} has {size} points, more than the {MAX_BOX} "
                "the bitset view builds"
            )
        self.radix, self.weights, self.size = radix, _weights(n), size
        self.columns: Dict[Tuple[int, int], int] = {}
        self.steps = [(w, self.at_most(i, r - 2)) for i, (w, r) in enumerate(zip(self.weights, radix))]
        self.grades = [1]

    def __missing__(self, key: int) -> tuple:
        packed = int.from_bytes(bytes(decode(key, len(self.radix))), "little")
        k = key % self.size
        place = self[key] = (k >> 3, 1 << (k & 7), packed)
        return place

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
        """The tables of `codes_of`, u_i = code(e_i) = w_i + n!."""
        return self.split_sums(_unit_keys(len(self.radix)))

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
        """The keys of the points of a set, in index order."""
        return self.sums_of(bits, self.code_tables)

    def code_at(self, k: int) -> int:
        """The key of the point with index k."""
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
    S_n, given as a collection of their keys (`code`; an integer that is no
    key is refused with a ValueError that names it, `_Box`):

    - `box`: that box;
    - `bits`: P, the set as a bitset over the box;
    - `degree`: the top degree;
    - `packed`: the byte form of each vector (`_Box`), in the order of the
      keys given, collected in the pass that sets the bits (coeff);
    - `high`: H, the mask with 0x80 in each of the n bytes;

    and, each as a bitset over the box:

    - `uncovered`: the points below the top degree with no unit step in P
      (conj2);
    - `low_maxima`: the maximal points below the top degree (conj1);
    - `lower`: the points of P with no unit step down in P (conj4);
    - `maximal`: the maximal points of P, the top degree and `low_maxima`
      (conj3, conj4);
    - `missing`: the unit steps beta = alpha + e_i of the points of P that
      lie below some point of P but not in it (conj3).

    For byte forms a and b of alpha and beta, alpha <= beta componentwise
    iff ((b | H) - a) & H == H.  Proof: while every entry is < 128, byte i
    of the difference is beta_i + 128 - alpha_i, which lies in 1..255, so
    no byte borrows from the next, and its high bit is set iff
    beta_i >= alpha_i.  The box exists only for n <= 10 (MAX_BOX), so every
    entry is at most 9: the identity always holds.

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
        "n", "box", "bits", "degree", "packed", "high", "uncovered", "maximal", "low_maxima",
        "lower", "missing",
    )

    def __init__(self, keys, n: int):
        box = self.box = _boxes(n)
        buf = bytearray(-(-box.size // 8))
        packed = self.packed = []
        append = packed.append
        for key in keys:
            byte, bit, form = box[key]
            buf[byte] |= bit
            append(form)
        P = self.bits = int.from_bytes(buf, "little")
        top = max(keys, default=0) // box.size
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
        self.high = int.from_bytes(b"\x80" * n, "little")
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

    `codes` maps exponent text to its key and grows as new texts are seen:
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
    digits of x_j and x_{j+1} in the move table (`_moves`) and one update
    per output term.  f must lie in the staircase box, as every polynomial
    of the recursion does, and then so does the result."""
    global OPERATOR_APPLICATIONS
    OPERATOR_APPLICATIONS += 1
    n = f.nvars
    if not 1 <= j <= n - 1:
        raise ValueError(f"operator index {j} out of range for nvars={n}")
    moves = _moves(n, j, parts)
    weight, fields = _weights(n)[j - 1], len(moves)
    out: Dict[int, int] = {}
    get = out.get
    for expo, coeff in f.terms.items():
        for offset, multiplier in moves[expo // weight % fields]:
            e = expo + offset
            out[e] = get(e, 0) + multiplier * coeff
    if 0 in out.values():  # terms that cancelled, in about a fifth of the calls of a sweep
        out = {e: c for e, c in out.items() if c}
    return Poly(out, n)


@functools.cache
def _moves(n: int, j: int, parts: tuple) -> list:
    """The move table of `_closed_form` for one (n, j, parts), built when
    first asked for: entry a + r_j b, for a < r_j = n - j + 1 and
    b < r_{j+1} = n - j the exponents of x_j and x_{j+1} (the digits
    kappa // w_j mod r_j r_{j+1} of a key kappa, `code`), holds the
    (offset, multiplier) pairs of the output: the monomial x^alpha with
    those exponents goes to the sum of multiplier * x^beta,
    code(beta) = code(alpha) + offset, over them.  Offsets that meet are
    combined and zero multipliers dropped.

    A part first multiplies by x_{j+1}^lift: b' = b + lift.  The divided
    difference of x_j^a x_{j+1}^b' is the sum of x_j^p x_{j+1}^{a+b'-1-p}
    over min(a, b') <= p < max(a, b'), negated when a < b' (so 0 when
    a = b'), and the other coordinates ride along.  On keys, the first p
    moves digit j from a to p and digit j + 1 from b to a + b' - 1 - p, the
    degree moves by lift - 1, and each next p adds w_j - w_{j+1}.

    The offsets are exact because every output stays in the box: a <= n - j
    and b' <= b + 1 <= n - j, so p < max(a, b') <= n - j < r_j, and
    a + b' - 1 - p <= max(a, b') - 1 < r_{j+1}.  No digit carries or
    borrows, so the offset moves those two digits and the degree alone."""
    unit, w_j = math.factorial(n), math.perm(n, j - 1)
    w_next = w_j * (n - j + 1)
    table = []
    for b in range(n - j):
        for a in range(n - j + 1):
            combined: Dict[int, int] = {}
            for lift, sign in parts:
                lifted = b + lift
                p, c = min(a, lifted), sign if a > lifted else -sign
                offset = (p - a) * w_j + (a + lifted - 1 - p - b) * w_next + (lift - 1) * unit
                for _ in range(abs(a - lifted)):
                    combined[offset] = combined.get(offset, 0) + c
                    offset += w_j - w_next
            table.append(tuple((e, c) for e, c in combined.items() if c))
    return table


def staircase_monomial(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the w_0 base case."""
    return Poly({code(tuple(range(n - 1, -1, -1))): 1}, n)


class PolynomialTable:
    """Schubert ("S") or Grothendieck ("G") polynomials for all of S_n, keyed
    by permutation; read-only once built.  `cache.read_table` fills it from
    a cache file, `cache.load_or_build` a 𝔊 table from pipe dreams, and
    `build_table` either flavor from the divided differences.  No 𝔖 table
    is built for the cache: `cache.write_tables` writes 𝔖 from 𝔊."""

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
    the staircase monomial at w_0, with ∂_j (𝔖) or π_j (𝔊).  Equal keys in
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
