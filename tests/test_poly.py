import itertools
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import perms, pipedreams, poly
from grothpoly.poly import (
    Poly,
    build_table,
    isobaric_divided_difference,
    parse_text,
    staircase_monomial,
)
from reference import (
    ISOBARIC,
    PLAIN,
    byte_code,
    closed_form_vectors,
    divided_difference,
    graded_component,
    identity,
    pd_polynomial_all_vectors,
    poly_of,
    term_key,
    vector_terms,
)


def V(text):
    """The terms, keyed by exponent vector, of the polynomial with this
    canonical text, whatever its exponents."""
    terms = {}
    for chunk in text.split(";"):
        coeff, key = chunk.split(":")
        terms[tuple(map(int, key.split(",")))] = int(coeff)
    return terms


def P(text, nvars):
    """The polynomial with this canonical text.  Unlike `parse_text`, which
    reads the cache, it checks nothing but that each exponent lies in the
    staircase box (`poly.code`)."""
    return poly_of(V(text), nvars)


# Reference definitions of operations the engine does not need, on
# polynomials given by their terms keyed by exponent vector, so that they
# take any exponents, in the staircase box or not.


def one(nvars):
    return {(0,) * nvars: 1}


def variable(j, nvars):
    """The variable x_j (1-based)."""
    return {tuple(1 if k == j else 0 for k in range(1, nvars + 1)): 1}


def same_nvars(*polys):
    lengths = sorted({len(e) for f in polys for e in f})
    if len(lengths) > 1:
        raise ValueError(f"nvars mismatch: {lengths}")


def add(f, g):
    same_nvars(f, g)
    out = dict(f)
    for expo, coeff in g.items():
        c = out.get(expo, 0) + coeff
        if c:
            out[expo] = c
        else:
            out.pop(expo, None)
    return out


def neg(f):
    return {e: -c for e, c in f.items()}


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    same_nvars(f, g)
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def swap_vars(f, j):
    """Exchange x_j and x_{j+1} (1-based j, 1 <= j <= nvars - 1)."""
    nvars = len(next(iter(f)))
    if not 1 <= j <= nvars - 1:
        raise ValueError(f"swap index {j} out of range for nvars={nvars}")
    return {e[: j - 1] + (e[j], e[j - 1]) + e[j + 1 :]: c for e, c in f.items()}


def top_component(f):
    return graded_component(f, f.degree())


def lowest_component(f):
    return graded_component(f, min(map(sum, vector_terms(f))))


def leading_exponent(f):
    """Maximal exponent under the canonical term order (x_n weighs most)."""
    return max(vector_terms(f), key=term_key)


# The 14-term polynomial for w = 15324, frozen as a regression value and
# cross-validated by the engine equivalence tests.
G_15324 = {
    (3, 1, 0, 0, 0): 1,
    (3, 0, 1, 0, 0): 1,
    (2, 2, 0, 0, 0): 1,
    (2, 1, 1, 0, 0): 1,
    (1, 3, 0, 0, 0): 1,
    (1, 2, 1, 0, 0): 1,
    (0, 3, 1, 0, 0): 1,
    (3, 2, 0, 0, 0): -1,
    (3, 1, 1, 0, 0): -2,
    (2, 3, 0, 0, 0): -1,
    (2, 2, 1, 0, 0): -2,
    (1, 3, 1, 0, 0): -2,
    (3, 2, 1, 0, 0): 1,
    (2, 3, 1, 0, 0): 1,
}


# Polynomials in four variables with exponents up to 3, most outside the
# staircase box of S_4, for the vector operators; and polynomials in that
# box, alpha_i <= 4 - i, for the engine.
coefficients = st.integers(min_value=-6, max_value=6).filter(bool)
small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 4), coefficients, min_size=1, max_size=8
)
box_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=r) for r in (3, 2, 1, 0)]),
    coefficients,
    min_size=1,
    max_size=8,
)


class TestPolyBasics:
    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mul(variable(1, 2), variable(3, 3))
        with pytest.raises(ValueError):
            mul(variable(3, 3), variable(1, 2))
        with pytest.raises(ValueError):
            add(variable(1, 2), variable(3, 3))

    @pytest.mark.parametrize("j", [0, 3])
    def test_swap_vars_index_out_of_range(self, j):
        with pytest.raises(ValueError):
            swap_vars(variable(1, 3), j)

    def test_add_cancels(self):
        f = V("1:1,0")
        assert sub(f, f) == {}

    def test_text_roundtrip(self):
        f = P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)
        assert parse_text(f.to_text(), 3, {}) == f

    def test_canonical_term_order(self):
        f = P("-1:1,1,0;1:0,1,0;1:1,0,0", 3)
        assert f.to_text() == "1:1,0,0;1:0,1,0;-1:1,1,0"

    def test_degree_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly({}, 2).degree()

    def test_graded_component(self):
        f = P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)
        assert graded_component(f, 1) == P("1:1,0,0;1:0,1,0", 3)
        assert top_component(f) == P("-1:1,1,0", 3)


class TestDividedDifference:
    """The engine's ∂_j and π_j on polynomials in the staircase box, which
    they keep inside it; the same identities on any exponents are
    `TestVectorOperators`."""

    def test_x1(self):
        assert divided_difference(P("1:1,0", 2), 1) == P("1:0,0", 2)

    def test_symmetric_input_killed(self):
        assert divided_difference(P("1:1,1,0", 3), 1) == Poly({}, 3)

    def test_x1_squared(self):
        f = divided_difference(P("1:2,0,0", 3), 1)
        assert f == P("1:1,0,0;1:0,1,0", 3)

    def test_result_symmetric(self):
        f = P("3:3,1,0,0;-2:2,0,1,0", 4)
        g = vector_terms(divided_difference(f, 1))
        assert g and g == swap_vars(g, 1)

    @settings(max_examples=150, deadline=None)
    @given(box_polys, st.integers(min_value=1, max_value=3))
    def test_dd_squares_to_zero(self, f, j):
        f = poly_of(f, 4)
        assert divided_difference(divided_difference(f, j), j) == Poly({}, 4)

    @settings(max_examples=150, deadline=None)
    @given(box_polys, st.integers(min_value=1, max_value=3))
    def test_dd_times_divisor_is_numerator(self, f, j):
        # (x_j - x_{j+1}) * d_j f == f - s_j f, checked by multiplication
        divisor = sub(variable(j, 4), variable(j + 1, 4))
        quotient = vector_terms(divided_difference(poly_of(f, 4), j))
        assert mul(divisor, quotient) == sub(f, swap_vars(f, j))

    @settings(max_examples=150, deadline=None)
    @given(box_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_is_dd_of_one_minus_x(self, f, j):
        # (1 - x_{j+1}) f may leave the box: its d_j is the vector operator's.
        one_minus_x = sub(one(4), variable(j + 1, 4))
        expected = closed_form_vectors(mul(one_minus_x, f), j, PLAIN)
        assert vector_terms(isobaric_divided_difference(poly_of(f, 4), j)) == expected

    @settings(max_examples=150, deadline=None)
    @given(box_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_idempotent(self, f, j):
        once = isobaric_divided_difference(poly_of(f, 4), j)
        assert isobaric_divided_difference(once, j) == once


class TestVectorOperators:
    """The identities of `TestDividedDifference` on any exponents, for the
    vector operators (`reference.closed_form_vectors`) that the engine is
    compared with."""

    def test_x1_squared(self):
        assert closed_form_vectors(V("1:2,0"), 1, PLAIN) == V("1:1,0;1:0,1")
        assert closed_form_vectors(V("1:2,0"), 1, ISOBARIC) == V("1:1,0;1:0,1;-1:1,1")

    def test_symmetric_fixed_and_killed(self):
        f = V("1:1,1,0;2:2,2,1")  # symmetric in x_1, x_2
        assert closed_form_vectors(f, 1, PLAIN) == {}
        assert closed_form_vectors(f, 1, ISOBARIC) == f

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_identities(self, f, j):
        dd = closed_form_vectors(f, j, PLAIN)
        assert closed_form_vectors(dd, j, PLAIN) == {}
        divisor = sub(variable(j, 4), variable(j + 1, 4))
        assert mul(divisor, dd) == sub(f, swap_vars(f, j))
        once = closed_form_vectors(f, j, ISOBARIC)
        one_minus_x = sub(one(4), variable(j + 1, 4))
        assert once == closed_form_vectors(mul(one_minus_x, f), j, PLAIN)
        assert closed_form_vectors(once, j, ISOBARIC) == once


class TestIsobaric:
    def test_x1(self):
        assert isobaric_divided_difference(P("1:1,0", 2), 1) == P("1:0,0", 2)

    def test_fixes_symmetric(self):
        f = P("1:1,1,0,0;2:2,2,1,0", 4)  # symmetric in x_1, x_2
        assert isobaric_divided_difference(f, 1) == f

    def test_x1_squared(self):
        f = isobaric_divided_difference(P("1:2,0,0", 3), 1)
        assert f == P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)


class TestTables:
    def test_w0_base_case(self, tables):
        assert tables[(3, "S")][(3, 2, 1)] == poly_of({(2, 1, 0): 1}, 3)
        assert tables[(4, "G")][(4, 3, 2, 1)] == staircase_monomial(4)

    def test_identity_is_one(self, tables):
        for n in (3, 4, 5):
            assert vector_terms(tables[(n, "G")][identity(n)]) == one(n)
            assert vector_terms(tables[(n, "S")][identity(n)]) == one(n)

    def test_g_132(self, tables):
        assert tables[(3, "G")][(1, 3, 2)] == P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)

    def test_schubert_homogeneous_of_length_degree(self, tables):
        for w, f in tables[(5, "S")].polys.items():
            lw = perms.length(w)
            assert all(sum(e) == lw for e in f.support())

    def test_golden_15324(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        assert vector_terms(g) == G_15324

    def test_schubert_15324(self, tables):
        s = tables[(5, "S")][(1, 5, 3, 2, 4)]
        assert vector_terms(s) == {e: c for e, c in G_15324.items() if sum(e) == 4}
        assert s.principal_specialization() == 7

    def test_lowest_component_is_schubert_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            assert lowest_component(g) == tables[(5, "S")][w]

    def test_principal_specialization_S5(self, tables):
        for w in perms.all_perms(5):
            assert tables[(5, "G")][w].principal_specialization() == 1

    def test_ascent_chain_independence_S5(self, tables):
        # every ascent of w yields the same polynomial from its parent
        for flavor, operator in (("S", divided_difference), ("G", isobaric_divided_difference)):
            table = tables[(5, flavor)]
            for w in perms.all_perms(5):
                for j in perms.ascents(w):
                    parent = perms.apply_s(w, j)
                    assert operator(table[parent], j) == table[w]

    def test_leading_term_is_rajcode_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            rc = perms.rajcode(w)
            assert g.degree() == sum(rc)
            assert leading_exponent(g) == rc

    def test_upwards_divisibility_S5(self, tables):
        for w in perms.all_perms(5):
            closure = perms.upper_closure(perms.rothe_diagram(w))
            bound = perms.weight(closure)
            g = tables[(5, "G")][w]
            for alpha in g.support():
                assert all(a <= b for a, b in zip(alpha, bound))
            assert g.degree() <= sum(closure)

    def test_downwards_divisibility_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            lw = perms.length(w)
            supp = g.support()
            for beta in supp:
                if sum(beta) == lw:
                    continue
                assert any(
                    sum(a) == sum(beta) - 1 and all(x <= y for x, y in zip(a, beta))
                    for a in supp
                )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_schubert_is_lowest_degree_part(self, tables, n):
        # 𝔖_w is the degree-l(w) part of 𝔊_w, and 𝔊_w has no lower term:
        # what `polytopes.check_fms` and `--mode print` read.
        assert_schubert_is_lowest_degree_part(tables[(n, "G")], tables[(n, "S")])

    @pytest.mark.slow
    def test_schubert_is_lowest_degree_part_S7_slow(self):
        assert_schubert_is_lowest_degree_part(build_table(7, "G"), build_table(7, "S"))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_first_ascent_children(self, n):
        """Every w != w_0 of S_n is a child of exactly one v, by the step
        j of its `recursion_parent`: the walk visits each w once."""
        parents = {}
        for v in perms.all_perms(n):
            for j, w in poly.first_ascent_children(v):
                assert w not in parents, w
                parents[w] = (j, v)
        assert parents.keys() == set(perms.all_perms(n)) - {perms.longest_element(n)}
        assert all(poly.recursion_parent(w) == step for w, step in parents.items())

    def test_walk_and_chain(self, tables):
        """The walks below the children of w_0, a full sweep's tasks, yield
        each w != w_0 once, with 𝔊_w, the root first; the chain builds one
        𝔊_w."""
        table = tables[(5, "G")]
        below = []
        for _, v in poly.first_ascent_children((5, 4, 3, 2, 1)):
            walked = list(poly.walk(v, table[v], isobaric_divided_difference))
            assert walked[0] == (v, table[v])
            assert all(g == table[w] for w, g in walked)
            below += [w for w, _ in walked]
        assert sorted(below) == perms.all_perms(5)[:-1]
        for w in perms.all_perms(5):
            assert poly.grothendieck(w) == table[w]

    def test_built_table_shares_vectors(self, tables):
        # Equal exponent vectors in a built table are one shared int, their
        # code.
        for table in tables.values():
            shared = {}
            for p in table.polys.values():
                for expo in p.terms:
                    assert shared.setdefault(expo, expo) is expo


def assert_schubert_is_lowest_degree_part(table_g, table_s):
    assert table_g.polys.keys() == table_s.polys.keys()
    for w, g in table_g.polys.items():
        length = perms.length(w)
        assert min(map(sum, g.support())) == length, w
        assert graded_component(g, length) == table_s[w], w


def box_vectors(n):
    """A vector of the staircase box of S_n."""
    return st.tuples(*[st.integers(0, n - i) for i in range(1, n + 1)])


# Two vectors of the staircase box of S_n, for n from 1 to 10.
box_pairs = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(box_vectors(n), box_vectors(n))
)


class TestTermOrder:
    def test_x1_less_than_xn(self):
        # x_1 < x_2 < x_3 under the implemented order
        assert term_key((1, 0, 0)) < term_key((0, 1, 0)) < term_key((0, 0, 1))

    @settings(max_examples=300, deadline=None)
    @given(box_pairs)
    def test_code_decodes_and_masked_order_is_term_order(self, pair):
        # The key with its degree part masked off, key mod n!, orders the
        # exponents as term order does.
        alpha, beta = pair
        n = len(alpha)
        unit = math.factorial(n)
        for v in (alpha, beta):
            assert poly.decode(poly.code(v), n) == v
        masked = poly.code(alpha) % unit < poly.code(beta) % unit
        assert masked == (term_key(alpha) < term_key(beta))

    @pytest.mark.parametrize("alpha", [(300, 0), (-1, 0), (0, 256)])
    def test_code_refuses_entries_outside_a_byte(self, alpha):
        # These lie outside the staircase box of S_2 too, which alone has
        # keys.
        with pytest.raises(ValueError, match=rf"^{re.escape(str(alpha))} lies outside the staircase box of S_2"):
            poly.code(alpha)


class TestKey:
    """The graded staircase index kappa = |alpha| n! + k(alpha)
    (`poly.code`) against the byte code it replaced
    (`reference.byte_code`)."""

    @settings(max_examples=300, deadline=None)
    @given(box_pairs)
    def test_matches_byte_code(self, pair):
        alpha, beta = pair
        n = len(alpha)
        unit, weights = math.factorial(n), [math.perm(n, i) for i in range(n)]
        assert (poly.code(alpha) < poly.code(beta)) == (byte_code(alpha) < byte_code(beta))
        assert (poly.code(alpha) == poly.code(beta)) == (alpha == beta)
        for v in (alpha, beta):
            key = poly.code(v)
            assert 0 <= key < 2**30
            assert key // unit == sum(v)
            assert poly.decode(key, n) == v
            for i in range(n):
                if v[i] < n - 1 - i:
                    step = v[:i] + (v[i] + 1,) + v[i + 1 :]
                    assert poly.code(step) == key + weights[i] + unit
                else:
                    with pytest.raises(ValueError, match="outside the staircase box"):
                        poly.code(v[:i] + (v[i] + 1,) + v[i + 1 :])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_largest_key_is_one_digit(self, n):
        # The corner of the box has the top degree and the last index.
        corner = tuple(range(n - 1, -1, -1))
        assert poly.code(corner) == (n * (n - 1) // 2 + 1) * math.factorial(n) - 1 < 2**30

    @pytest.mark.parametrize(
        "key, n", [(-1, 3), (1, 3), (6, 3), (5 * 6 + 5, 3), (2 * 24 + 23, 4)]
    )
    def test_decode_and_box_refuse_what_is_no_key(self, key, n):
        # Each integer's degree part key // n! differs from the digit sum of
        # key mod n!; the box refuses it each time it is asked, and keeps it
        # out of its memo.
        with pytest.raises(ValueError, match=rf"^{key} is no key of S_{n}"):
            poly.decode(key, n)
        box = poly._boxes(n)
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^{key} is no key of S_{n}"):
                box[key]
        assert key not in box

    @pytest.mark.parametrize("n", range(2, 11))
    def test_move_tables_stay_in_the_box(self, n):
        """For every j, both operators and every field (a, b) of the box,
        the digits of x_j and x_{j+1}, each output of the move table lies in
        the box and is the tuple kernel's: so an offset never carries or
        borrows, and the engine's operator is exact on the box."""
        for j in range(1, n):
            for parts in (PLAIN, ISOBARIC):
                table = poly._moves(n, j, parts)
                assert len(table) == (n - j + 1) * (n - j)
                for b in range(n - j):
                    for a in range(n - j + 1):
                        alpha = (0,) * (j - 1) + (a, b) + (0,) * (n - j - 1)
                        key = poly.code(alpha)
                        assert key // math.perm(n, j - 1) % len(table) == a + (n - j + 1) * b
                        out = {poly.decode(key + e, n): c for e, c in table[a + (n - j + 1) * b]}
                        expected = closed_form_vectors({alpha: 1}, j, parts)
                        assert out == expected, (n, j, parts, a, b)
                        for vector in expected:
                            poly.code(vector)  # refuses a vector outside the box


def assert_operators_match_tuple_kernel(f, j):
    """Both code operators at j, decoded, equal the tuple kernel's."""
    terms = vector_terms(f)
    for operator, parts in ((divided_difference, PLAIN), (isobaric_divided_difference, ISOBARIC)):
        assert vector_terms(operator(f, j)) == closed_form_vectors(terms, j, parts), (f, j)


def assert_recursion_steps_match_tuple_kernel(n, table_s, table_g):
    """Every step of the recursion of S_n, on the 𝔖 and the 𝔊 table, by
    both operators, equals the tuple kernel's; the tables themselves are
    the tuple kernel's recursion."""
    built = {"S": {perms.longest_element(n): {tuple(range(n - 1, -1, -1)): 1}}}
    built["G"] = dict(built["S"])
    by_length = sorted(perms.all_perms(n), key=perms.length, reverse=True)
    for w in by_length[1:]:
        j, parent = poly.recursion_parent(w)
        for flavor, table, parts in (("S", table_s, PLAIN), ("G", table_g, ISOBARIC)):
            assert_operators_match_tuple_kernel(table[parent], j)
            built[flavor][w] = closed_form_vectors(built[flavor][parent], j, parts)
    for flavor, table in (("S", table_s), ("G", table_g)):
        assert {w: vector_terms(f) for w, f in table.polys.items()} == built[flavor]


class TestCodeOperator:
    """The operators on keys against the tuple kernel they replaced
    (`reference.closed_form_vectors`), on polynomials in the staircase
    box."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_recursion_steps_match_tuple_kernel(self, tables, n):
        assert_recursion_steps_match_tuple_kernel(n, tables[(n, "S")], tables[(n, "G")])

    @pytest.mark.slow
    def test_recursion_steps_match_tuple_kernel_S7_slow(self):
        assert_recursion_steps_match_tuple_kernel(7, build_table(7, "S"), build_table(7, "G"))

    @settings(max_examples=300, deadline=None)
    @given(box_polys, st.integers(min_value=1, max_value=3))
    def test_random_polynomials_match_tuple_kernel(self, f, j):
        assert_operators_match_tuple_kernel(poly_of(f, 4), j)

    def test_fields_at_the_box_edge(self):
        # Every term has the top exponent of x_j or x_{j+1} for some j,
        # where a step out of the box would carry: the move tables, one
        # entry per field of the box, keep each output inside it.
        f = poly_of({(3, 2, 1, 0): 3, (3, 0, 0, 0): -2, (0, 2, 1, 0): 1, (1, 1, 1, 0): 5}, 4)
        for j in (1, 2, 3):
            assert_operators_match_tuple_kernel(f, j)
            assert len(poly._moves(4, j, ISOBARIC)) == (5 - j) * (4 - j)


def box_points(radix):
    """Every point of the box 0 <= alpha_i < radix_i, listed by counting
    with x_1 the fastest digit: the point at position k is the one the box
    numbers k."""
    return [p[::-1] for p in itertools.product(*(range(r) for r in radix[::-1]))]


def box_index(box, alpha):
    """The bit the box sets for alpha; its byte form is checked too."""
    byte, bit, packed = box[poly.code(alpha)]
    assert packed.to_bytes(len(alpha), "little") == bytes(alpha)
    return 8 * byte + bit.bit_length() - 1


STAIRCASES = [tuple(range(n, 0, -1)) for n in range(1, 7)]


class TestSupportBox:
    def test_exponents_lie_in_staircase(self, tables):
        # Row i of a pipe dream has n - i cells.
        for n in range(1, 8):
            if (n, "G") in tables:
                polys = tables[(n, "G")].polys
            else:
                polys = pipedreams.pd_polynomial_all(n, "grothendieck")
            staircase = tuple(range(n - 1, -1, -1))
            for g in polys.values():
                for alpha in g.support():
                    assert all(map(int.__le__, alpha, staircase)), alpha

    @pytest.mark.parametrize("radix", STAIRCASES, ids=lambda r: ",".join(map(str, r)))
    def test_index_and_masks_match_scan(self, radix):
        box = poly._boxes(len(radix))
        assert box.radix == radix
        points = box_points(radix)
        assert box.size == len(points)
        assert [box_index(box, alpha) for alpha in points] == list(range(len(points)))
        for i, (w, mask) in enumerate(box.steps):
            inside = [k for k, alpha in enumerate(points) if alpha[i] + 1 < radix[i]]
            assert mask == sum(1 << k for k in inside)
            for k in inside:
                alpha = points[k]
                assert points[k + w] == alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        everything = (1 << box.size) - 1
        assert box.codes_of(everything) == list(map(poly.code, points))
        # up(X) and down(X) against the unit steps of X's points, scanned.
        steps = [
            {alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:] for i in range(len(radix))}
            for alpha in points
        ]
        for X in (everything, everything // 3, 1, 1 << box.size - 1):
            inside = [k for k in range(box.size) if X >> k & 1]
            members = {points[k] for k in inside}
            above = set().union(*(steps[k] for k in inside))
            assert box.points(box.up(X)) == [alpha for alpha in points if alpha in above]
            assert box.points(box.down(X)) == [p for p, up in zip(points, steps) if up & members]
        for d in range(sum(radix) - len(radix) + 2):
            assert list(box.points(box.grade(d))) == [p for p in points if sum(p) == d]

    @pytest.mark.parametrize("radix", STAIRCASES, ids=lambda r: ",".join(map(str, r)))
    def test_code_at_index(self, radix):
        box = poly._boxes(len(radix))
        points = box_points(radix)
        assert [box.code_at(k) for k in range(box.size)] == list(map(poly.code, points))

    @pytest.mark.parametrize("radix", STAIRCASES, ids=lambda r: ",".join(map(str, r)))
    def test_index_order_is_term_order(self, radix):
        box = poly._boxes(len(radix))
        by_term = sorted(box_points(radix), key=term_key)
        assert [box_index(box, alpha) for alpha in by_term] == list(range(box.size))

    def test_n10_builds_and_n11_is_refused(self):
        # The staircase box of S_10 has 3 628 800 points; that of S_11 has
        # 39 916 800, more than the view builds.
        corner = tuple(range(9, -1, -1))
        low = itertools.product(range(3), range(3), range(2), *[(0,)] * 7)
        g = poly_of(dict.fromkeys([corner, *low], 1), 10)
        started = time.perf_counter()
        view = poly._SupportView(g.terms, 10)
        assert time.perf_counter() - started < 5
        assert poly.decode(view.box.codes_of(view.maximal)[0], 10) == corner
        assert view.low_maxima == 0
        assert view.box.points(view.uncovered) == [(2, 2, 1) + (0,) * 7]
        assert poly.decode(min(view.box.codes_of(view.missing)), 10) == (0, 0, 0, 1) + (0,) * 6
        with pytest.raises(ValueError, match="has 39916800 points"):
            poly._SupportView([poly.code((0,) * 11)], 11)
