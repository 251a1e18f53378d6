import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import perms
from grothpoly.poly import (
    Poly,
    build_table,
    divided_difference,
    isobaric_divided_difference,
    staircase_monomial,
    term_key,
)


def P(text, nvars):
    return Poly.from_text(text, nvars)


# The 14-term polynomial for w = 15324, frozen as a regression value and
# cross-validated by the pipe-dream oracle tests.
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
).map(lambda d: Poly(d, 4))


class TestPolyBasics:
    def test_no_zero_coefficients_stored(self):
        with pytest.raises(ValueError):
            Poly({(1, 0): 0}, 2)

    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Poly.variable(1, 2) * Poly.variable(3, 3)
        with pytest.raises(ValueError):
            Poly.variable(3, 3) * Poly.variable(1, 2)
        with pytest.raises(ValueError):
            Poly.variable(1, 2) + Poly.variable(3, 3)

    @pytest.mark.parametrize("j", [0, 3])
    def test_swap_vars_index_out_of_range(self, j):
        with pytest.raises(ValueError):
            Poly.variable(1, 3).swap_vars(j)

    def test_add_cancels(self):
        f = P("1:1,0", 2)
        assert (f - f) == Poly.zero(2)

    def test_text_roundtrip(self):
        f = P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)
        assert Poly.from_text(f.to_text(), 3) == f

    def test_canonical_term_order(self):
        f = P("-1:1,1,0;1:0,1,0;1:1,0,0", 3)
        assert f.to_text() == "1:1,0,0;1:0,1,0;-1:1,1,0"

    def test_degree_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero(2).degree()

    def test_graded_component(self):
        f = P("1:1,0;1:0,1;-1:1,1", 2)
        assert f.graded_component(1) == P("1:1,0;1:0,1", 2)
        assert f.top_component() == P("-1:1,1", 2)


class TestDividedDifference:
    def test_x1(self):
        assert divided_difference(Poly.variable(1, 2), 1) == Poly.one(2)

    def test_symmetric_input_killed(self):
        x1x2 = Poly.variable(1, 2) * Poly.variable(2, 2)
        assert divided_difference(x1x2, 1) == Poly.zero(2)

    def test_x1_squared(self):
        f = divided_difference(P("1:2,0", 2), 1)
        assert f == P("1:1,0;1:0,1", 2)

    def test_result_symmetric(self):
        f = P("3:3,1,0;-2:2,0,2", 3)
        g = divided_difference(f, 1)
        assert g == g.swap_vars(1)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_dd_squares_to_zero(self, f, j):
        assert divided_difference(divided_difference(f, j), j) == Poly.zero(4)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_dd_times_divisor_is_numerator(self, f, j):
        # (x_j - x_{j+1}) * d_j f == f - s_j f, checked by multiplication
        divisor = Poly.variable(j, 4) - Poly.variable(j + 1, 4)
        assert divisor * divided_difference(f, j) == f - f.swap_vars(j)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_is_dd_of_one_minus_x(self, f, j):
        one_minus_x = Poly.one(4) - Poly.variable(j + 1, 4)
        assert isobaric_divided_difference(f, j) == divided_difference(one_minus_x * f, j)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(min_value=1, max_value=3))
    def test_isobaric_idempotent(self, f, j):
        once = isobaric_divided_difference(f, j)
        assert isobaric_divided_difference(once, j) == once


class TestIsobaric:
    def test_x1(self):
        assert isobaric_divided_difference(Poly.variable(1, 2), 1) == Poly.one(2)

    def test_fixes_symmetric(self):
        f = P("1:1,1,0;2:2,2,1", 3)  # symmetric in x_1, x_2
        assert isobaric_divided_difference(f, 1) == f

    def test_x1_squared(self):
        f = isobaric_divided_difference(P("1:2,0", 2), 1)
        assert f == P("1:1,0;1:0,1;-1:1,1", 2)


class TestTables:
    def test_w0_base_case(self, tables):
        assert tables[(3, "S")][(3, 2, 1)] == Poly.monomial((2, 1, 0), 3)
        assert tables[(4, "G")][(4, 3, 2, 1)] == staircase_monomial(4)

    def test_identity_is_one(self, tables):
        for n in (3, 4, 5):
            assert tables[(n, "G")][perms.identity(n)] == Poly.one(n)
            assert tables[(n, "S")][perms.identity(n)] == Poly.one(n)

    def test_g_132(self, tables):
        assert tables[(3, "G")][(1, 3, 2)] == P("1:1,0,0;1:0,1,0;-1:1,1,0", 3)

    def test_schubert_homogeneous_of_length_degree(self, tables):
        for w, f in tables[(5, "S")].items():
            lw = perms.length(w)
            assert all(sum(e) == lw for e in f.terms)

    def test_golden_15324(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        assert g.terms == G_15324

    def test_schubert_15324(self, tables):
        s = tables[(5, "S")][(1, 5, 3, 2, 4)]
        assert s.terms == {e: c for e, c in G_15324.items() if sum(e) == 4}
        assert s.principal_specialization() == 7

    def test_lowest_component_is_schubert_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            assert g.lowest_component() == tables[(5, "S")][w]

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
            assert g.leading_exponent() == rc

    def test_upwards_divisibility_S5(self, tables):
        for w in perms.all_perms(5):
            closure = perms.upper_closure(perms.rothe_diagram(w))
            bound = perms.weight(closure)
            g = tables[(5, "G")][w]
            for alpha in g.support():
                assert all(a <= b for a, b in zip(alpha, bound))
            assert g.degree() <= len(closure.boxes)

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

    def test_built_table_shares_vectors(self, tables):
        # Equal exponent vectors in a built table are one shared tuple.
        for table in tables.values():
            shared = {}
            for p in table.polys.values():
                for expo in p.terms:
                    assert shared.setdefault(expo, expo) is expo


class TestTermOrder:
    def test_x1_less_than_xn(self):
        # x_1 < x_2 < x_3 under the implemented order
        assert term_key((1, 0, 0)) < term_key((0, 1, 0)) < term_key((0, 0, 1))
