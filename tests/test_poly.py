import itertools
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
    add,
    closed_form_vectors,
    divided_difference,
    graded_component,
    identity,
    pd_polynomial_all_vectors,
    poly_of,
    term_key,
    vector_terms,
)


def P(text, nvars):
    """The polynomial with this canonical text.  Unlike `parse_text`, which
    reads the cache, it takes exponents outside the staircase box."""
    terms = {}
    for chunk in text.split(";"):
        coeff, key = chunk.split(":")
        terms[tuple(map(int, key.split(",")))] = int(coeff)
    return poly_of(terms, nvars)


# Reference definitions of operations the engine does not need.


def one(nvars):
    return poly_of({(0,) * nvars: 1}, nvars)


def variable(j, nvars):
    """The variable x_j (1-based)."""
    return poly_of({tuple(1 if k == j else 0 for k in range(1, nvars + 1)): 1}, nvars)


def neg(f):
    return Poly({e: -c for e, c in f.terms.items()}, f.nvars)


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    if f.nvars != g.nvars:
        raise ValueError(f"nvars mismatch: {f.nvars} and {g.nvars}")
    out = {}
    for e1, c1 in vector_terms(f).items():
        for e2, c2 in vector_terms(g).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return poly_of(out, f.nvars)


def swap_vars(f, j):
    """Exchange x_j and x_{j+1} (1-based j, 1 <= j <= nvars - 1)."""
    if not 1 <= j <= f.nvars - 1:
        raise ValueError(f"swap index {j} out of range for nvars={f.nvars}")
    swapped = {e[: j - 1] + (e[j], e[j - 1]) + e[j + 1 :]: c for e, c in vector_terms(f).items()}
    return poly_of(swapped, f.nvars)


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


small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
    st.integers(min_value=-6, max_value=6).filter(bool),
    max_size=8,
).map(lambda d: poly_of(d, 4))


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
        f = P("1:1,0", 2)
        assert sub(f, f) == Poly({}, 2)

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
        f = P("1:1,0;1:0,1;-1:1,1", 2)
        assert graded_component(f, 1) == P("1:1,0;1:0,1", 2)
        assert top_component(f) == P("-1:1,1", 2)


class TestDividedDifference:
    def test_x1(self):
        assert divided_difference(variable(1, 2), 1) == one(2)

    def test_symmetric_input_killed(self):
        x1x2 = mul(variable(1, 2), variable(2, 2))
        assert divided_difference(x1x2, 1) == Poly({}, 2)

    def test_x1_squared(self):
        f = divided_difference(P("1:2,0", 2), 1)
        assert f == P("1:1,0;1:0,1", 2)

    def test_result_symmetric(self):
        f = P("3:3,1,0;-2:2,0,2", 3)
        g = divided_difference(f, 1)
        assert g == swap_vars(g, 1)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_dd_squares_to_zero(self, f, j):
        assert divided_difference(divided_difference(f, j), j) == Poly({}, 4)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_dd_times_divisor_is_numerator(self, f, j):
        # (x_j - x_{j+1}) * d_j f == f - s_j f, checked by multiplication
        divisor = sub(variable(j, 4), variable(j + 1, 4))
        assert mul(divisor, divided_difference(f, j)) == sub(f, swap_vars(f, j))

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_is_dd_of_one_minus_x(self, f, j):
        one_minus_x = sub(one(4), variable(j + 1, 4))
        assert isobaric_divided_difference(f, j) == divided_difference(mul(one_minus_x, f), j)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_idempotent(self, f, j):
        once = isobaric_divided_difference(f, j)
        assert isobaric_divided_difference(once, j) == once


class TestIsobaric:
    def test_x1(self):
        assert isobaric_divided_difference(variable(1, 2), 1) == one(2)

    def test_fixes_symmetric(self):
        f = P("1:1,1,0;2:2,2,1", 3)  # symmetric in x_1, x_2
        assert isobaric_divided_difference(f, 1) == f

    def test_x1_squared(self):
        f = isobaric_divided_difference(P("1:2,0", 2), 1)
        assert f == P("1:1,0;1:0,1;-1:1,1", 2)


class TestTables:
    def test_w0_base_case(self, tables):
        assert tables[(3, "S")][(3, 2, 1)] == poly_of({(2, 1, 0): 1}, 3)
        assert tables[(4, "G")][(4, 3, 2, 1)] == staircase_monomial(4)

    def test_identity_is_one(self, tables):
        for n in (3, 4, 5):
            assert tables[(n, "G")][identity(n)] == one(n)
            assert tables[(n, "S")][identity(n)] == one(n)

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


class TestTermOrder:
    def test_x1_less_than_xn(self):
        # x_1 < x_2 < x_3 under the implemented order
        assert term_key((1, 0, 0)) < term_key((0, 1, 0)) < term_key((0, 0, 1))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 255), min_size=n, max_size=n)] * 2)
        )
    )
    def test_code_decodes_and_masked_order_is_term_order(self, pair):
        alpha, beta = map(tuple, pair)
        n = len(alpha)
        mask = (1 << 8 * n) - 1
        for v in (alpha, beta):
            assert poly.decode(poly.code(v), n) == v
            assert poly.code(v) >> 8 * n == sum(v)
        masked = (poly.code(alpha) & mask) < (poly.code(beta) & mask)
        assert masked == (term_key(alpha) < term_key(beta))
        by_code = poly.code(alpha) < poly.code(beta)
        assert by_code == ((sum(alpha), term_key(alpha)) < (sum(beta), term_key(beta)))

    @pytest.mark.parametrize("alpha", [(300, 0), (-1, 0), (0, 256)])
    def test_code_refuses_entries_outside_a_byte(self, alpha):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(alpha))} has an entry outside 0..255"):
            poly.code(alpha)


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
    """The operators on codes against the tuple kernel they replaced
    (`reference.closed_form_vectors`)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_recursion_steps_match_tuple_kernel(self, tables, n):
        assert_recursion_steps_match_tuple_kernel(n, tables[(n, "S")], tables[(n, "G")])

    @pytest.mark.slow
    def test_recursion_steps_match_tuple_kernel_S7_slow(self):
        assert_recursion_steps_match_tuple_kernel(7, build_table(7, "S"), build_table(7, "G"))

    @settings(max_examples=300, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_random_polynomials_match_tuple_kernel(self, f, j):
        assert_operators_match_tuple_kernel(f, j)

    def test_byte_pair_beyond_n(self):
        # Entries far outside the staircase box of S_3: the move tables are
        # filled per byte pair on first use, whatever the pair.
        f = poly_of({(40, 9, 100): 3, (9, 40, 0): -2, (0, 200, 55): 1, (7, 7, 7): 5}, 3)
        for j in (1, 2):
            assert_operators_match_tuple_kernel(f, j)
        assert (40 | 9 << 8) in poly._moves(3, 1, ISOBARIC)


def box_points(radix):
    """Every point of the box 0 <= alpha_i < radix_i, listed by counting
    with x_1 the fastest digit: the point at position k is the one the box
    numbers k."""
    return [p[::-1] for p in itertools.product(*(range(r) for r in radix[::-1]))]


def box_index(box, alpha):
    byte, bit = box[poly.code(alpha)]
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
