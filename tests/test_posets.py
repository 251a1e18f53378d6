import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import cli, perms, poly, posets
from grothpoly.poly import Poly, term_key
from grothpoly.posets import BOTTOM, VectorPoset, build_Pw, mobius
from grothpoly.verdicts import NotApplicable
from reference import graded_component, identity, is_fireworks


def componentwise_leq(alpha, beta):
    if len(alpha) != len(beta):
        raise ValueError(f"length mismatch: {alpha} vs {beta}")
    return all(a <= b for a, b in zip(alpha, beta))


def maximal_elements(elements, n):
    """The maxima, as found by the packed support view (entries >= 0,
    degree < 127)."""
    view = posets._SupportView(elements, n)
    return frozenset(poly.decode(m, n) for m in view.maxima)


class TestComponentwise:
    def test_examples(self):
        assert componentwise_leq((0, 0), (1, 0))
        assert not componentwise_leq((1, 0), (0, 1))
        assert not componentwise_leq((0, 1), (1, 0))
        assert componentwise_leq((3, 2, 1, 0, 0), (3, 3, 1, 0, 0))


class TestHasse:
    def test_chain(self):
        P = VectorPoset({(0,), (1,), (2,)}, 1)
        assert P.covers() == {((0,), (1,)), ((1,), (2,))}

    def test_antichain(self):
        P = VectorPoset({(1, 0), (0, 1)}, 2)
        assert P.covers() == set()

    def test_support_poset_15324_cover_count(self, tables):
        # frozen regression: Hasse diagram of the 14-point support
        supp = tables[(5, "G")][(1, 5, 3, 2, 4)].support()
        P = VectorPoset(supp, 5)
        covers = P.covers()
        assert ((1, 2, 1, 0, 0), (2, 2, 1, 0, 0)) in covers
        assert len(covers) == 19

    def test_maximal_singleton(self):
        assert maximal_elements({(2, 2)}, 2) == {(2, 2)}

    def test_maximal_15324(self, tables):
        supp = tables[(5, "G")][(1, 5, 3, 2, 4)].support()
        assert maximal_elements(supp, 5) == {
            (3, 2, 1, 0, 0),
            (2, 3, 1, 0, 0),
        }

    def test_maximal_fireworks_is_closure_weight_S5(self, tables):
        for w in perms.all_perms(5):
            if not is_fireworks(w):
                continue
            g = tables[(5, "G")][w]
            wt = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
            assert maximal_elements(g.support(), 5) == {wt}

    def test_hasse_text(self):
        P = VectorPoset({(0,), (1,)}, 1)
        assert P.hasse_text() == "0 -> 1"


class TestMobius:
    def test_chain(self):
        P = VectorPoset({(1,), (2,)}, 1)
        mu = mobius(P)
        assert mu == {BOTTOM: 1, (1,): -1, (2,): 0}

    def test_diamond(self):
        P = VectorPoset({(1, 0), (0, 1), (1, 1)}, 2)
        mu = mobius(P)
        assert mu[(1, 1)] == 1

    @pytest.mark.parametrize(
        "elements",
        [{(1, 0), (0, 1)}, {(0,), (2,)}, {(-1,), (0,)}],
        ids=["missing-join", "gap", "negative"],
    )
    def test_requires_upper_set_of_box(self, elements):
        with pytest.raises(ValueError, match="upper set"):
            mobius(VectorPoset(elements, len(next(iter(elements)))))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.sets(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4)
        )
    )
    def test_matches_recursion_on_upper_sets(self, generators):
        top = tuple(map(max, zip(*generators)))
        upper = {
            v
            for v in itertools.product(*(range(t + 1) for t in top))
            if any(componentwise_leq(g, v) for g in generators)
        }
        P = VectorPoset(upper, len(top))
        assert mobius(P) == mobius_recursion(P)

    def test_defining_identity(self, tables):
        for w in perms.all_perms(4):
            P = build_Pw(w, tables[(4, "G")][w])
            mu = mobius(P)
            for q in P.elements:
                below = [r for r in P.elements if componentwise_leq(r, q)]
                assert mu[BOTTOM] + sum(mu[r] for r in below) == 0


class TestBuildPw:
    def test_identity(self, tables):
        P = build_Pw(identity(3), tables[(3, "G")][identity(3)])
        assert P.elements == {(0, 0, 0)}

    def test_15324(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        P = build_Pw((1, 5, 3, 2, 4), g)
        assert P.elements == g.support() | {(3, 3, 0, 0, 0), (3, 3, 1, 0, 0)}

    def test_351624_top(self, tables):
        w = (3, 5, 1, 6, 2, 4)
        P = build_Pw(w, tables[(6, "G")][w])
        assert max(P.elements, key=sum) == (3, 3, 2, 2, 0, 0)

    def test_contains_support_and_closure_weight_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            P = build_Pw(w, g)
            assert g.support() <= P.elements
            assert perms.weight(perms.upper_closure(perms.rothe_diagram(w))) in P.elements


class TestConjectureCheckers:
    def test_identity_all_pass(self, tables):
        w = identity(4)
        g = tables[(4, "G")][w]
        assert posets.check_conjecture_1(w, g).ok
        assert posets.check_conjecture_2(w, g).ok
        assert posets.check_conjecture_3(w, g).ok
        assert posets.check_conjecture_coeff(w, g).ok
        assert posets.check_conjecture_mobius(w, g).ok

    def test_15324(self, tables):
        w = (1, 5, 3, 2, 4)
        g = tables[(5, "G")][w]
        assert posets.check_conjecture_1(w, g).ok
        assert posets.check_conjecture_2(w, g).ok
        assert posets.check_conjecture_3(w, g).ok
        assert posets.check_conjecture_coeff(w, g).ok
        assert posets.check_conjecture_mobius(w, g).ok

    def test_15324_coeff_below_beta(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        beta = (3, 2, 1, 0, 0)
        total = sum(
            c
            for a, c in g.terms.items()
            if componentwise_leq(a, beta)
        )
        assert total == 1

    def test_15324_mobius_zero_off_support(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        mu = mobius(build_Pw((1, 5, 3, 2, 4), g))
        assert mu[(3, 3, 0, 0, 0)] == 0
        assert mu[(3, 3, 1, 0, 0)] == 0

    def test_351624_mobius(self, tables):
        w = (3, 5, 1, 6, 2, 4)
        g = tables[(6, "G")][w]
        assert posets.check_conjecture_mobius(w, g).ok
        mu = mobius(build_Pw(w, g))
        # coefficient of the displayed -3 term
        assert -mu[(3, 3, 1, 1, 0, 0)] == -3

    def test_mobius_rejects_non_zero_one(self, tables):
        w = (1, 2, 5, 4, 3)
        verdict = posets.check_conjecture_mobius(w, tables[(5, "G")][w])
        assert verdict == NotApplicable("not a zero-one permutation")

    def test_fireworks_conj1_S5(self, tables):
        for w in perms.all_perms(5):
            if is_fireworks(w):
                assert posets.check_conjecture_1(w, tables[(5, "G")][w]).ok

    def test_failing_verdict_carries_witness(self):
        from grothpoly.poly import Poly

        # artificial non-conjectural polynomial: an isolated low-degree point
        f = Poly({(2, 0): 1, (0, 1): 1}, 2)
        verdict = posets.check_conjecture_1((2, 1), f)
        assert not verdict.ok
        assert verdict.witness == (0, 1)


class TestRajchgot:
    # G_15324 has degree 6 and leading exponent rajcode(15324) = (2,3,1,0,0).
    @pytest.mark.parametrize(
        "added, witness",
        [
            # x_5 weighs most in term order: it leads, the degree stays 6.
            ((0, 0, 0, 0, 1), [0, 0, 0, 0, 1]),
            # Degree 9, last in term order: the leading exponent stays.
            ((9, 0, 0, 0, 0), [2, 3, 1, 0, 0]),
        ],
        ids=["leading-exponent", "degree"],
    )
    def test_failure_names_leading_exponent(self, tables, added, witness):
        w = (1, 5, 3, 2, 4)
        g = tables[(5, "G")][w]
        assert cli._run_check("rajchgot", w, g) == {"status": "pass"}
        terms = dict(g.terms)
        terms[added] = 1
        for ordered in (terms.items(), list(terms.items())[::-1]):
            entry = cli._run_check("rajchgot", w, Poly(dict(ordered), 5))
            assert entry == {"status": "fail", "witness": witness}


# Reference definitions: the pair and box scans the kernels in `posets`
# replace.  The *_failures functions return every exponent at which a check
# fails; the checker must report the first of them in degree, then term order.


def order(v):
    return (sum(v), term_key(v))


def maximal_pairwise(elements):
    return frozenset(
        a for a in elements if not any(b != a and componentwise_leq(a, b) for b in elements)
    )


def maximal_by_degree(elements):
    """Scan in decreasing degree and keep alpha iff no kept maximum is >=
    alpha: a tuple loop, cheap enough for S_7, checked against
    `maximal_pairwise` over S_6."""
    maxima = []
    for a in sorted(elements, key=sum, reverse=True):
        if not any(componentwise_leq(a, m) for m in maxima):
            maxima.append(a)
    return frozenset(maxima)


def build_Pw_scan(w, groth):
    """Every vector of the box [0, closure weight] tested against every
    support point."""
    bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
    supp = groth.support()
    return VectorPoset(
        {
            v
            for v in itertools.product(*(range(b + 1) for b in bound))
            if any(componentwise_leq(a, v) for a in supp)
        },
        len(w),
    )


def covers_scan(P):
    """Pairs a < b with no element strictly between, every pair against
    every element."""
    els = P.elements
    leq = componentwise_leq
    return {
        (a, b)
        for a in els
        for b in els
        if a != b
        and leq(a, b)
        and not any(c != a and c != b and leq(a, c) and leq(c, b) for c in els)
    }


def covers_minimal_up_set(P):
    """Hasse relation of any finite set of vectors: the upper covers of a
    are the minimal elements of its strict up-set.  That set is scanned in
    degree order, and b is kept iff no kept cover of a lies below it: an
    element strictly between a and b has smaller degree than b, and lies
    above a minimal one, which was kept first."""
    els = sorted(P.elements, key=order)
    result = set()
    for i, a in enumerate(els):
        # Everything >= a other than a comes later in degree order.
        kept = []
        for b in els[i + 1:]:
            if componentwise_leq(a, b) and not any(componentwise_leq(c, b) for c in kept):
                kept.append(b)
        result.update((a, b) for b in kept)
    return result


def mobius_recursion(P):
    """mu(0^, q) = -sum_{0^ <= r < q} mu(0^, r) along a linear extension."""
    table = {BOTTOM: 1}
    for q in sorted(P.elements, key=order):
        table[q] = -sum(m for r, m in table.items() if r == BOTTOM or componentwise_leq(r, q))
    return table


def conj1_failures(w, groth):
    deg = groth.degree()
    return {a for a in maximal_pairwise(groth.support()) if sum(a) < deg}


def conj2_failures(w, groth):
    supp, deg = groth.support(), groth.degree()
    return {
        a
        for a in supp
        if sum(a) < deg
        and not any(sum(b) == sum(a) + 1 and componentwise_leq(a, b) for b in supp)
    }


def conj2_step_failures(w, groth):
    """The unit-step tuple loop: a cover one degree up is alpha + e_i."""
    supp, deg = groth.support(), groth.degree()
    return {
        a
        for a in supp
        if sum(a) < deg
        and not any(a[:i] + (a[i] + 1,) + a[i + 1:] in supp for i in range(len(a)))
    }


def conj3_failures(w, groth):
    supp = groth.support()
    maxima = maximal_pairwise(supp)
    return {
        beta
        for a in supp
        for m in maxima
        if componentwise_leq(a, m)
        for beta in itertools.product(*(range(x, y + 1) for x, y in zip(a, m)))
        if beta not in supp
    }


def coeff_failures(w, groth):
    """Top-degree beta whose coefficient sum over the support below it is
    not 1.  They share one degree, so the first in degree, then term order
    is the first in term order."""
    return {
        beta
        for beta in graded_component(groth, groth.degree()).support()
        if sum(c for a, c in groth.terms.items() if componentwise_leq(a, beta)) != 1
    }


def mobius_failures(w, groth):
    P = build_Pw_scan(w, groth)
    mu = mobius_recursion(P)
    return {a for a in P.elements if groth.terms.get(a, 0) != -mu[a]}


CHECKERS = (
    (posets.check_conjecture_1, conj1_failures),
    (posets.check_conjecture_2, conj2_failures),
    (posets.check_conjecture_3, conj3_failures),
    (posets.check_conjecture_coeff, coeff_failures),
)


def assert_matches_scan(checker, failures, w, groth):
    verdict = checker(w, groth)
    expected = failures(w, groth)
    assert verdict.ok == (not expected)
    if expected:
        assert verdict.witness == min(expected, key=order)
    return verdict


class TestKernelsAgainstScans:
    def test_S6(self, tables):
        for w in perms.all_perms(6):
            g = tables[(6, "G")][w]
            maxima = maximal_pairwise(g.support())
            assert maximal_elements(g.support(), 6) == maxima
            assert maximal_by_degree(g.support()) == maxima
            assert conj2_step_failures(w, g) == conj2_failures(w, g)
            P = build_Pw(w, g)
            assert P.elements == build_Pw_scan(w, g).elements
            assert mobius(P) == mobius_recursion(P)
            for checker, failures in CHECKERS:
                assert_matches_scan(checker, failures, w, g)

    def test_terms_deleted_S5(self, tables):
        # One or two terms removed from each G_w, so that the failing
        # branches run too.
        rng = random.Random(5)
        failed = collections.Counter()
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            if len(g.terms) < 3:
                continue
            dropped = rng.sample(sorted(g.terms), rng.randint(1, 2))
            cut = Poly({e: c for e, c in g.terms.items() if e not in dropped}, 5)
            maxima = maximal_pairwise(cut.support())
            assert maximal_elements(cut.support(), 5) == maxima
            assert maximal_by_degree(cut.support()) == maxima
            assert conj2_step_failures(w, cut) == conj2_failures(w, cut)
            P = build_Pw(w, cut)
            assert P.elements == build_Pw_scan(w, cut).elements
            assert mobius(P) == mobius_recursion(P)
            checkers = CHECKERS
            if perms.is_zero_one(w):
                checkers += ((posets.check_conjecture_mobius, mobius_failures),)
            for checker, failures in checkers:
                failed[checker.__name__] += not assert_matches_scan(checker, failures, w, cut).ok
        assert len(failed) == 5 and all(failed.values())

    def test_covers_S5(self, tables):
        # On P_w, an upper set of its box, and on the raw support, which
        # need not be one.  The unit steps are the covers of the raw support
        # too, because conj3 holds on S_5: every support is interval-closed.
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            for P in (build_Pw(w, g), VectorPoset(g.support(), 5)):
                assert P.covers() == covers_scan(P), w
                assert covers_minimal_up_set(P) == covers_scan(P), w

    def test_covers_S6(self, tables):
        for w in perms.all_perms(6):
            P = build_Pw(w, tables[(6, "G")][w])
            assert P.covers() == covers_minimal_up_set(P), w

    @pytest.mark.slow
    def test_S7_slow(self):
        # The pair scans cost |supp|^2 (2e8 pairs over S_7), so the maxima
        # and conj2 are checked against the tuple loops above instead.
        for w, g in poly.build_table(7, "G").polys.items():
            supp, deg = g.support(), g.degree()
            maxima = maximal_by_degree(supp)
            assert maximal_elements(supp, 7) == maxima
            low = {a for a in maxima if sum(a) < deg}
            assert_matches_scan(posets.check_conjecture_1, lambda w, g: low, w, g)
            assert_matches_scan(posets.check_conjecture_2, conj2_step_failures, w, g)
            assert_matches_scan(posets.check_conjecture_coeff, coeff_failures, w, g)


class TestSupportView:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            # Entries and degrees below 127, as the support view requires.
            lambda n: st.tuples(
                st.tuples(*[st.integers(0, 126 // n)] * n),
                st.tuples(*[st.integers(0, 126 // n)] * n),
                st.integers(0, n - 1),
            )
        )
    )
    def test_packed_leq_and_unit_step(self, case):
        alpha, beta, i = case
        n = len(alpha)
        code = poly.codes.__getitem__
        high = sum(0x80 << 8 * k for k in range(n + 1))
        packed = ((code(beta) | high) - code(alpha)) & high == high
        assert packed == componentwise_leq(alpha, beta)
        step = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        assert code(alpha) + 256**i + 256**n == code(step)
        assert poly.decode(code(step), n) == step
        assert poly.decode(code(alpha), n) == alpha
        assert (code(alpha) < code(beta)) == (posets._order(alpha) < posets._order(beta))

    @pytest.mark.parametrize(
        "checker",
        [
            posets.check_conjecture_1,
            posets.check_conjecture_2,
            posets.check_conjecture_3,
            posets.check_conjecture_coeff,
        ],
        ids=["conj1", "conj2", "conj3", "coeff"],
    )
    def test_degree_limit_and_zero(self, checker):
        assert checker((2, 1), Poly({(126, 0): 2, (125, 0): -1}, 2)).ok
        for g in (Poly({(127, 0): 1}, 2), Poly({(0, 0): 1, (64, 63): 1}, 2), Poly({}, 2)):
            with pytest.raises(ValueError):
                checker((2, 1), g)

    def test_kept_for_last_poly(self, tables):
        g, h = tables[(4, "G")][(1, 4, 3, 2)], tables[(4, "G")][(2, 1, 4, 3)]
        view = posets._support_view(g)
        assert posets._support_view(g) is view
        assert posets._support_view(h) is not view
        assert posets._support_view(Poly(g.terms, 4)) is not view


class TestWitnessOrder:
    # G_15324 with one term deleted.  conj1, conj2, coeff and mobius then
    # fail at two, two, two and seven exponents; the witness is the first in
    # degree, then term order, whatever order the terms were inserted in.
    @pytest.mark.parametrize(
        "deleted, checker, witness, detail",
        [
            ((3, 2, 1, 0, 0), posets.check_conjecture_1, (3, 2, 0, 0, 0), "maximal below top degree"),
            ((3, 2, 1, 0, 0), posets.check_conjecture_2, (3, 2, 0, 0, 0), "no cover one degree up"),
            (
                (3, 2, 0, 0, 0),
                posets.check_conjecture_3,
                (3, 2, 0, 0, 0),
                "missing in box [(3, 1, 0, 0, 0), (3, 2, 1, 0, 0)]",
            ),
            ((2, 2, 0, 0, 0), posets.check_conjecture_coeff, (3, 2, 1, 0, 0), "coefficient sum 0"),
            ((2, 2, 0, 0, 0), posets.check_conjecture_mobius, (3, 2, 0, 0, 0), "coefficient -1 != -mu = 0"),
        ],
        ids=["conj1", "conj2", "conj3", "coeff", "mobius"],
    )
    def test_term_deleted_15324(self, tables, deleted, checker, witness, detail):
        w = (1, 5, 3, 2, 4)
        terms = [(e, c) for e, c in tables[(5, "G")][w].terms.items() if e != deleted]
        for ordered in (terms, terms[::-1], sorted(terms)):
            verdict = checker(w, Poly(dict(ordered), 5))
            assert not verdict.ok
            assert (verdict.witness, verdict.detail) == (witness, detail)

    def test_conj3_box_names_first_maximum(self):
        # (1, 0, 0) is missing below both maxima; the box names the first of
        # them in degree, then term order.
        terms = [((0, 0, 0), 1), ((1, 1, 0), 1), ((1, 0, 1), 1)]
        for ordered in (terms, terms[::-1]):
            verdict = posets.check_conjecture_3((1, 2, 3), Poly(dict(ordered), 3))
            assert (verdict.witness, verdict.detail) == (
                (1, 0, 0),
                "missing in box [(0, 0, 0), (1, 1, 0)]",
            )
