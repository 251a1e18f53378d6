import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from grothpoly import cli, perms, poly, posets
from grothpoly.poly import Poly
from grothpoly.posets import VectorPoset, build_Pw, mobius
from grothpoly.verdicts import NotApplicable
from reference import (
    byte_code,
    graded_component,
    identity,
    is_fireworks,
    poly_of,
    term_key,
    vector_terms,
)


def componentwise_leq(alpha, beta):
    if len(alpha) != len(beta):
        raise ValueError(f"length mismatch: {alpha} vs {beta}")
    return all(a <= b for a, b in zip(alpha, beta))


def poset(elements, n):
    """The VectorPoset of these vectors, held as their keys."""
    return VectorPoset(map(poly.code, elements), n)


def vectors(P):
    """The elements of a VectorPoset, decoded."""
    return frozenset(poly.decode(q, P.n) for q in P.elements)


def covers(P):
    """The Hasse covers of a VectorPoset, decoded."""
    return {(poly.decode(a, P.n), poly.decode(b, P.n)) for a, b in P.covers()}


def by_vector(table, n):
    """A table of `mobius`, keyed by vectors, with mu(0^, 0^) = 1 adjoined
    as the references have it."""
    return {BOTTOM: 1} | {poly.decode(q, n): m for q, m in table.items()}


def maximal_elements(elements, n):
    """The maxima, as found by the packed support view (points in the
    staircase box of S_n)."""
    view = poly._SupportView(list(map(poly.code, elements)), n)
    return frozenset(poly.decode(m, n) for m in view.box.codes_of(view.maximal))


class TestComponentwise:
    def test_examples(self):
        assert componentwise_leq((0, 0), (1, 0))
        assert not componentwise_leq((1, 0), (0, 1))
        assert not componentwise_leq((0, 1), (1, 0))
        assert componentwise_leq((3, 2, 1, 0, 0), (3, 3, 1, 0, 0))


class TestHasse:
    def test_chain(self):
        P = poset({(0, 0, 0), (1, 0, 0), (2, 0, 0)}, 3)
        assert covers(P) == {((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0))}

    def test_antichain(self):
        P = poset({(1, 0, 0), (0, 1, 0)}, 3)
        assert P.covers() == set()

    def test_carry_is_no_cover(self):
        # Each element has the top entry of some coordinate, where a + e_i
        # carries into the next digit: the sum is no key, so it matches no
        # element, though (0, 1, 0) has the carried index of (2, 0, 0).
        P = poset({(2, 0, 0), (0, 1, 0), (2, 1, 0)}, 3)
        assert covers(P) == {((2, 0, 0), (2, 1, 0))}

    def test_support_poset_15324_cover_count(self, tables):
        # frozen regression: Hasse diagram of the 14-point support
        supp = tables[(5, "G")][(1, 5, 3, 2, 4)].support()
        found = covers(poset(supp, 5))
        assert ((1, 2, 1, 0, 0), (2, 2, 1, 0, 0)) in found
        assert len(found) == 19

    def test_maximal_singleton(self):
        assert maximal_elements({(2, 1, 0)}, 3) == {(2, 1, 0)}

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
        P = poset({(0, 0, 0), (1, 0, 0)}, 3)
        assert P.hasse_text() == "0,0,0 -> 1,0,0"
        P = poset({(0, 1, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}, 4)
        assert P.hasse_text() == "0,1,0,0 -> 0,2,0,0\n0,1,0,0 -> 1,1,0,0"


class TestMobius:
    def test_chain(self):
        chain = {(1,), (2,)}
        expected = {BOTTOM: 1, (1,): -1, (2,): 0}
        assert mobius_tuples(chain, 1) == mobius_recursion(chain) == expected

    def test_diamond(self):
        diamond = {(1, 0), (0, 1), (1, 1)}
        assert mobius_tuples(diamond, 2) == mobius_recursion(diamond)
        assert mobius_tuples(diamond, 2)[(1, 1)] == 1

    @pytest.mark.parametrize(
        "elements",
        [{(1, 0), (0, 1)}, {(0,), (2,)}, {(-1,), (0,)}],
        ids=["missing-join", "gap", "negative"],
    )
    def test_requires_upper_set_of_box(self, elements):
        n = len(next(iter(elements)))
        with pytest.raises(ValueError, match="upper set"):
            mobius_tuples(elements, n)
        if min(map(min, elements)) < 0:
            # A negative entry lies outside the staircase box and has no
            # key, so no VectorPoset holds one.
            with pytest.raises(ValueError, match=r"\(-1,\) lies outside the staircase box of S_1"):
                poset(elements, n)

    def test_borrow_is_no_key(self):
        # Over the whole staircase box of S_n, n <= 6: q - e_i borrows where
        # q_i = 0, and q + e_i carries where q_i = n - i; neither result is
        # a key, so neither matches an element.  Inside the box both are
        # the keys of the unit steps.
        for n in range(1, 7):
            unit, weights = math.factorial(n), [math.perm(n, i) for i in range(n)]
            for q in itertools.product(*(range(n - i + 1) for i in range(1, n + 1))):
                key = poly.code(q)
                for i, weight in enumerate(weights):
                    for sign, inside in ((-1, q[i] > 0), (1, q[i] < n - 1 - i)):
                        moved = key + sign * (weight + unit)
                        if inside:
                            step = q[:i] + (q[i] + sign,) + q[i + 1 :]
                            assert poly.decode(moved, n) == step
                        else:
                            with pytest.raises(ValueError, match=f"^{moved} is no key of S_{n}"):
                                poly.decode(moved, n)

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
        n = len(top)
        assert mobius_tuples(upper, n) == mobius_recursion(upper)

    def test_defining_identity(self, tables):
        for w in perms.all_perms(4):
            g = tables[(4, "G")][w]
            mu = by_vector(mobius(w, g), 4)
            elements = vectors(build_Pw(w, g))
            for q in elements:
                below = [r for r in elements if componentwise_leq(r, q)]
                assert mu[BOTTOM] + sum(mu[r] for r in below) == 0

    def test_keys_are_Pw_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            assert mobius(w, g).keys() == build_Pw(w, g).elements, w


class TestBuildPw:
    def test_identity(self, tables):
        P = build_Pw(identity(3), tables[(3, "G")][identity(3)])
        assert vectors(P) == {(0, 0, 0)}

    def test_15324(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        P = build_Pw((1, 5, 3, 2, 4), g)
        assert vectors(P) == g.support() | {(3, 3, 0, 0, 0), (3, 3, 1, 0, 0)}

    def test_351624_top(self, tables):
        w = (3, 5, 1, 6, 2, 4)
        P = build_Pw(w, tables[(6, "G")][w])
        assert max(vectors(P), key=sum) == (3, 3, 2, 2, 0, 0)

    def test_contains_support_and_closure_weight_S5(self, tables):
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            P = vectors(build_Pw(w, g))
            assert g.support() <= P
            assert perms.weight(perms.upper_closure(perms.rothe_diagram(w))) in P

    def test_closure_weight_in_staircase(self):
        # The bound of P_w lies in the staircase box, b_i <= n - i.
        for n in range(1, 8):
            for w in perms.all_perms(n):
                bound = perms.weight(perms.closed_rothe_diagram(w))
                assert all(b <= n - i for i, b in enumerate(bound, 1)), w

    def test_closure_kept_for_last_perm(self):
        w = (1, 5, 3, 2, 4)
        closure = perms.closed_rothe_diagram(w)
        assert perms.closed_rothe_diagram(w) is closure
        assert closure == perms.upper_closure(perms.rothe_diagram(w))
        # An equal tuple that is another object is built anew, to the same.
        again = perms.closed_rothe_diagram(tuple(list(w)))
        assert again is not closure and again == closure


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
            for a, c in vector_terms(g).items()
            if componentwise_leq(a, beta)
        )
        assert total == 1

    def test_15324_mobius_zero_off_support(self, tables):
        g = tables[(5, "G")][(1, 5, 3, 2, 4)]
        mu = by_vector(mobius((1, 5, 3, 2, 4), g), 5)
        assert mu[(3, 3, 0, 0, 0)] == 0
        assert mu[(3, 3, 1, 0, 0)] == 0

    def test_351624_mobius(self, tables):
        w = (3, 5, 1, 6, 2, 4)
        g = tables[(6, "G")][w]
        assert posets.check_conjecture_mobius(w, g).ok
        mu = by_vector(mobius(w, g), 6)
        # coefficient of the displayed -3 term
        assert -mu[(3, 3, 1, 1, 0, 0)] == -3

    def test_mobius_fails_on_term_outside_Pw(self):
        # P_w of the identity is {0}: the term 5 x_1 has no Moebius value.
        w = identity(4)
        g = poly_of({(0, 0, 0, 0): 1, (1, 0, 0, 0): 5}, 4)
        verdict = posets.check_conjecture_mobius(w, g)
        assert not verdict.ok
        assert verdict.witness == (1, 0, 0, 0)
        assert verdict.detail == "coefficient 5 outside P_w"
        assert (verdict.ok, verdict.witness, verdict.detail) == check_mobius_tuples(w, g)

    def test_mobius_rejects_non_zero_one(self, tables):
        w = (1, 2, 5, 4, 3)
        verdict = posets.check_conjecture_mobius(w, tables[(5, "G")][w])
        assert verdict == NotApplicable("not a zero-one permutation")

    def test_fireworks_conj1_S5(self, tables):
        for w in perms.all_perms(5):
            if is_fireworks(w):
                assert posets.check_conjecture_1(w, tables[(5, "G")][w]).ok

    def test_failing_verdict_carries_witness(self):
        # artificial non-conjectural polynomial: an isolated low-degree point
        f = poly_of({(2, 0, 0): 1, (0, 1, 0): 1}, 3)
        verdict = posets.check_conjecture_1((3, 1, 2), f)
        assert not verdict.ok
        assert verdict.witness == (0, 1, 0)


class TestRajchgot:
    # G_15324 has degree 6 and leading exponent rajcode(15324) = (2,3,1,0,0).
    @pytest.mark.parametrize(
        "added, witness",
        [
            # x_4 is compared before x_3 in term order, so x_4 leads; the
            # degree stays 6.
            ((0, 0, 0, 1, 0), [0, 0, 0, 1, 0]),
            # Degree 7, earlier in term order: the leading exponent stays.
            ((4, 2, 1, 0, 0), [2, 3, 1, 0, 0]),
        ],
        ids=["leading-exponent", "degree"],
    )
    def test_failure_names_leading_exponent(self, tables, added, witness):
        w = (1, 5, 3, 2, 4)
        g = tables[(5, "G")][w]
        assert cli._run_check("rajchgot", w, g) == {"status": "pass"}
        terms = vector_terms(g)
        terms[added] = 1
        for ordered in (terms.items(), list(terms.items())[::-1]):
            entry = cli._run_check("rajchgot", w, poly_of(dict(ordered), 5))
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
    return frozenset(
        v
        for v in itertools.product(*(range(b + 1) for b in bound))
        if any(componentwise_leq(a, v) for a in supp)
    )


def unit_steps(alpha):
    """alpha + e_i for i = 1..n."""
    for i in range(len(alpha)):
        yield alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def build_Pw_tuples(w, groth):
    """The up-closure of the support points below the closure weight inside
    the box [0, weight], by a search over +e_i steps on tuples: the kernel
    that the bitset closure of `posets.build_Pw` replaced."""
    bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
    frontier = [alpha for alpha in groth.support() if componentwise_leq(alpha, bound)]
    elements = set(frontier)
    while frontier:
        alpha = frontier.pop()
        for i, beta in enumerate(unit_steps(alpha)):
            if alpha[i] < bound[i] and beta not in elements:
                elements.add(beta)
                frontier.append(beta)
    return frozenset(elements)


# Adjoined minimum element: a distinguished sentinel, deliberately not the
# zero vector (which is a legitimate element for w = identity).
BOTTOM = "0^"


def mobius_tuples(elements, n):
    """The n backward differences of `posets.mobius` on tuples: the kernel
    that the one on codes replaced.  It checks the premise of their proof,
    that the set is an upper set of its box, which `posets.mobius` takes
    from `build_Pw` and does not re-check."""
    top = tuple(map(max, zip(*elements)))
    for i, t in enumerate(top):
        for v in elements:
            if v[i] < 0 or (v[i] < t and v[:i] + (v[i] + 1,) + v[i + 1:] not in elements):
                raise ValueError(
                    f"mobius requires an upper set of the box [0, {top}]; {v} breaks it"
                )
    diff = dict.fromkeys(elements, 1)
    for i in range(n):
        diff = {
            q: c - diff.get(q[:i] + (q[i] - 1,) + q[i + 1:], 0)
            for q, c in diff.items()
        }
    table = {BOTTOM: 1}
    table.update((q, -c) for q, c in diff.items())
    return table


def check_mobius_tuples(w, groth):
    """The mobius check on the tuple kernels, as (ok, witness, detail)."""
    if not perms.is_zero_one(w):
        return None
    elements = build_Pw_tuples(w, groth)
    mu = mobius_tuples(elements, len(w))
    terms = vector_terms(groth)
    wrong = [a for a in elements if terms.get(a, 0) != -mu[a]]
    wrong += [a for a in terms if a not in elements]
    if not wrong:
        return (True, None, "")
    alpha = min(wrong, key=order)
    if alpha not in elements:
        return (False, alpha, f"coefficient {terms[alpha]} outside P_w")
    return (False, alpha, f"coefficient {terms.get(alpha, 0)} != -mu = {-mu[alpha]}")


def assert_mobius_matches_tuples(w, groth):
    """P_w, its Moebius table and the mobius verdict against the tuple
    kernels."""
    P = build_Pw(w, groth)
    elements = build_Pw_tuples(w, groth)
    assert vectors(P) == elements, w
    assert by_vector(mobius(w, groth), len(w)) == mobius_tuples(elements, len(w)), w
    verdict = posets.check_conjecture_mobius(w, groth)
    if isinstance(verdict, NotApplicable):
        assert check_mobius_tuples(w, groth) is None
    else:
        assert (verdict.ok, verdict.witness, verdict.detail) == check_mobius_tuples(w, groth), w
    return P


def covers_scan(els):
    """Pairs a < b with no element strictly between, every pair against
    every element."""
    leq = componentwise_leq
    return {
        (a, b)
        for a in els
        for b in els
        if a != b
        and leq(a, b)
        and not any(c != a and c != b and leq(a, c) and leq(c, b) for c in els)
    }


def covers_minimal_up_set(elements):
    """Hasse relation of any finite set of vectors: the upper covers of a
    are the minimal elements of its strict up-set.  That set is scanned in
    degree order, and b is kept iff no kept cover of a lies below it: an
    element strictly between a and b has smaller degree than b, and lies
    above a minimal one, which was kept first."""
    els = sorted(elements, key=order)
    result = set()
    for i, a in enumerate(els):
        # Everything >= a other than a comes later in degree order.
        kept = []
        for b in els[i + 1:]:
            if componentwise_leq(a, b) and not any(componentwise_leq(c, b) for c in kept):
                kept.append(b)
        result.update((a, b) for b in kept)
    return result


def mobius_recursion(elements):
    """mu(0^, q) = -sum_{0^ <= r < q} mu(0^, r) along a linear extension of
    a set of vectors."""
    table = {BOTTOM: 1}
    for q in sorted(elements, key=order):
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
    terms = vector_terms(groth)
    return {
        beta
        for beta in graded_component(groth, groth.degree()).support()
        if sum(c for a, c in terms.items() if componentwise_leq(a, beta)) != 1
    }


def mobius_failures(w, groth):
    P = build_Pw_scan(w, groth)
    mu = mobius_recursion(P)
    terms = vector_terms(groth)
    return {a for a in P if terms.get(a, 0) != -mu[a]} | (terms.keys() - P)


def view_scan(g):
    """The per-code scan that the support view's bitsets replace, on the
    byte codes of the exponents (`reference.byte_code`), which order them
    as the keys do: the gap of each code below the top degree (0xFF in
    byte i iff the unit step alpha + e_i is not in the support), the
    uncovered codes (every step missing), and the maxima: the top codes,
    then each uncovered code, in decreasing degree, that no kept maximum
    lies above.  conj3 then checks every code against every maximum above
    it: (m - alpha) & gap(alpha) names the steps below m that are missing.
    Returns the uncovered, the low maxima and the maxima, each as vectors in
    code order, the missing steps as a set of vectors, and conj3's
    (witness, detail), None if it passes."""
    n = g.nvars

    def vector(code):
        return tuple((code & (up - 1)).to_bytes(n, "little"))

    codes = list(map(byte_code, vector_terms(g)))
    up = 1 << 8 * n
    top = max(codes) // up
    present = set(codes)
    steps = [(up + (1 << 8 * i), 0xFF << 8 * i) for i in range(n)]
    full = up - 1
    high = int.from_bytes(b"\x80" * (n + 1), "little")
    bottom = top * up
    top_codes, gaps, uncovered = [], {}, []
    for code in codes:
        if code >= bottom:
            top_codes.append(code)
            continue
        gap = 0
        for unit, byte in steps:
            if code + unit not in present:
                gap |= byte
        gaps[code] = gap
        if gap == full:
            uncovered.append(code)
    uncovered.sort()
    top_codes.sort()
    maxima = top_codes[:]
    low_maxima = []
    for code in reversed(uncovered):
        if not any(((m | high) - code) & high == high for m in maxima):
            maxima.append(code)
            low_maxima.append(code)
    low_maxima.reverse()
    failing = []
    for alpha, gap in gaps.items():
        if gap:
            for m in maxima:
                if ((m | high) - alpha) & high == high and (bad := (m - alpha) & gap):
                    failing.extend(
                        (alpha + up + (1 << 8 * i), alpha, m)
                        for i, s in enumerate(bad.to_bytes(n, "little"))
                        if s
                    )
    conj3 = None
    if failing:
        beta = min(b for b, _, _ in failing)
        alpha = min(a for b, a, _ in failing if b == beta)
        m = min(m for b, _, m in failing if b == beta)
        conj3 = (vector(beta), f"missing in box [{vector(alpha)}, {vector(m)}]")
    missing = {vector(b) for b, _, _ in failing}
    return (
        list(map(vector, uncovered)),
        list(map(vector, low_maxima)),
        list(map(vector, sorted(maxima))),
        missing,
        conj3,
    )


def assert_view_matches_scan(g):
    """Each bitset of the view, decoded, against the scan."""
    view = poly.support_view(g)
    uncovered, low_maxima, maxima, missing, conj3 = view_scan(g)
    n = g.nvars

    def points(bits):
        return [poly.decode(k, n) for k in sorted(view.box.codes_of(bits))]

    assert points(view.uncovered) == uncovered
    assert points(view.low_maxima) == low_maxima
    assert points(view.maximal) == maxima
    assert set(points(view.missing)) == missing
    verdict = posets.check_conjecture_3(None, g)
    assert (None if verdict.ok else (verdict.witness, verdict.detail)) == conj3


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
            assert_view_matches_scan(g)
            P = assert_mobius_matches_tuples(w, g)
            assert vectors(P) == build_Pw_scan(w, g)
            assert by_vector(mobius(w, g), 6) == mobius_recursion(vectors(P))
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
            terms = vector_terms(g)
            dropped = rng.sample(sorted(terms), rng.randint(1, 2))
            cut = poly_of({e: c for e, c in terms.items() if e not in dropped}, 5)
            maxima = maximal_pairwise(cut.support())
            assert maximal_elements(cut.support(), 5) == maxima
            assert maximal_by_degree(cut.support()) == maxima
            assert conj2_step_failures(w, cut) == conj2_failures(w, cut)
            assert_view_matches_scan(cut)
            P = assert_mobius_matches_tuples(w, cut)
            assert vectors(P) == build_Pw_scan(w, cut)
            assert by_vector(mobius(w, cut), 5) == mobius_recursion(vectors(P))
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
            for P in (build_Pw(w, g), poset(g.support(), 5)):
                assert covers(P) == covers_scan(vectors(P)), w
                assert covers_minimal_up_set(vectors(P)) == covers_scan(vectors(P)), w

    def test_covers_S6(self, tables):
        for w in perms.all_perms(6):
            P = build_Pw(w, tables[(6, "G")][w])
            assert covers(P) == covers_minimal_up_set(vectors(P)), w

    @pytest.mark.slow
    def test_S7_slow(self):
        # The pair scans cost |supp|^2 (2e8 pairs over S_7), so the maxima
        # and conj2 are checked against the tuple loops above instead.
        for w, g in poly.build_table(7, "G").polys.items():
            assert_view_matches_scan(g)
            supp, deg = g.support(), g.degree()
            maxima = maximal_by_degree(supp)
            assert maximal_elements(supp, 7) == maxima
            low = {a for a in maxima if sum(a) < deg}
            assert_matches_scan(posets.check_conjecture_1, lambda w, g: low, w, g)
            assert_matches_scan(posets.check_conjecture_2, conj2_step_failures, w, g)
            assert_matches_scan(posets.check_conjecture_coeff, coeff_failures, w, g)
            assert_mobius_matches_tuples(w, g)


class TestSupportView:
    @settings(max_examples=300, deadline=None)
    @given(
        # Points of the staircase box, alpha_i <= n - i.
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.sets(
                st.tuples(*[st.integers(0, n - i) for i in range(1, n + 1)]),
                min_size=1,
                max_size=12,
            )
        )
    )
    @example({(4, 3, 2, 1, 0)})
    @example({(0, 0, 0, 0), (1, 0, 1, 0)})
    def test_matches_scan_on_drawn_supports(self, support):
        assert_view_matches_scan(poly_of(dict.fromkeys(support, 1), len(next(iter(support)))))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            # Points of the staircase box of S_n and a coordinate.
            lambda n: st.tuples(
                st.tuples(*[st.integers(0, n - i) for i in range(1, n + 1)]),
                st.tuples(*[st.integers(0, n - i) for i in range(1, n + 1)]),
                st.integers(0, n - 1),
            )
        )
    )
    def test_packed_leq_and_unit_step(self, case):
        # The byte forms the box keeps beside each key test componentwise
        # order by one subtraction; a unit step inside the box adds
        # w_i + n! to the key.
        alpha, beta, i = case
        n = len(alpha)
        code, box = poly.code, poly._boxes(n)
        high = int.from_bytes(b"\x80" * n, "little")
        packed = ((box[code(beta)][2] | high) - box[code(alpha)][2]) & high == high
        assert packed == componentwise_leq(alpha, beta)
        assert poly.support_view(poly_of({alpha: 1}, n)).high == high
        if alpha[i] < n - 1 - i:
            step = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            assert code(alpha) + math.perm(n, i) + math.factorial(n) == code(step)
            assert poly.decode(code(step), n) == step
        assert poly.decode(code(alpha), n) == alpha
        order = (sum(alpha), term_key(alpha)) < (sum(beta), term_key(beta))
        assert (code(alpha) < code(beta)) == order

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
    def test_outside_staircase_and_zero(self, checker):
        # The staircase box of S_2 is {(0, 0), (1, 0)}, keys 0 and 3: a
        # vector outside it has no key, and `poly.code` refuses it, naming
        # it, before any polynomial holds it.  The view refuses an integer
        # that is no key, naming it, and the zero polynomial.
        assert checker((2, 1), poly_of({(1, 0): 2, (0, 0): -1}, 2)).ok
        for outside in [(2, 0), (0, 1), (127, 0), (300, 0), (-1, 0)]:
            message = f"{outside} lies outside the staircase box of S_2"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                poly_of({(0, 0): 1, outside: 1}, 2)
        for key in (1, 2, 4, -3):
            with pytest.raises(ValueError, match=f"^{key} is no key of S_2"):
                checker((2, 1), Poly({0: 1, key: 1}, 2))
        with pytest.raises(ValueError, match="zero polynomial"):
            checker((2, 1), Poly({}, 2))

    def test_kept_for_last_poly(self, tables):
        g, h = tables[(4, "G")][(1, 4, 3, 2)], tables[(4, "G")][(2, 1, 4, 3)]
        view = poly.support_view(g)
        assert poly.support_view(g) is view
        assert poly.support_view(h) is not view
        assert poly.support_view(Poly(g.terms, 4)) is not view


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
        terms = [(e, c) for e, c in vector_terms(tables[(5, "G")][w]).items() if e != deleted]
        for ordered in (terms, terms[::-1], sorted(terms)):
            verdict = checker(w, poly_of(dict(ordered), 5))
            assert not verdict.ok
            assert (verdict.witness, verdict.detail) == (witness, detail)

    def test_conj3_box_names_first_maximum(self):
        # (1, 0, 0) is missing below both maxima; the box names the first of
        # them in degree, then term order.
        terms = [((0, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((1, 0, 1, 0), 1)]
        for ordered in (terms, terms[::-1]):
            verdict = posets.check_conjecture_3((1, 2, 3, 4), poly_of(dict(ordered), 4))
            assert (verdict.witness, verdict.detail) == (
                (1, 0, 0, 0),
                "missing in box [(0, 0, 0, 0), (1, 1, 0, 0)]",
            )
