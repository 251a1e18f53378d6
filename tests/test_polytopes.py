import functools
import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import cli, perms, pipedreams, poly, polytopes
from grothpoly.poly import Poly
from grothpoly.polytopes import (
    SetFunctionPair,
    check_conjecture_4,
    check_fms,
    check_prop_converse,
    check_superset,
    is_paramodular,
    lattice_points_of_pair,
    recover_pair,
    spanning_points,
)
from grothpoly.verdicts import NotApplicable
from reference import (
    check_escobar_yong,
    check_grassmannian_pair,
    dominance_leq,
    grassmannian_pair,
    grassmannian_par,
    grassmannian_shape,
    identity,
    pad,
    poly_of,
    recover_pair_points,
    vector_terms,
)


def g_table(n):
    """The 𝔊 table of S_n, built by the pipe dreams."""
    return poly.PolynomialTable(n, "G", pipedreams.pd_polynomial_all(n, "grothendieck"))


@functools.lru_cache(maxsize=None)
def base_points(S, n):
    """Indicator vectors of the bases of SM_n(S): its spanning sets of size
    |S|.  Kept per (S, n)."""
    return frozenset(p for p in spanning_points(S, n) if sum(p) == len(S))


# The Fink-Meszaros-St. Dizier decomposition of a support point.


def decompose_support_point(w, alpha, groth, schub):
    """Write alpha as a sum of one spanning-set indicator per Rothe column
    (zero for empty columns), by the marked-matrix peeling construction:
    descend from alpha to a Schubert support point beta, decompose beta into
    column bases, then erase surplus closure boxes row by row."""
    n = len(w)
    supp_g = groth.support()
    if alpha not in supp_g:
        raise ValueError(f"{alpha} is not in the support")
    # Walk down one unit step beta - e_i at a time, the first i whose step is
    # in the support, until hitting the Schubert support.
    lw = perms.length(w)
    beta = alpha
    while sum(beta) > lw:
        steps = (beta[:i] + (beta[i] - 1,) + beta[i + 1:] for i in range(n) if beta[i])
        step = next((b for b in steps if b in supp_g), None)
        if step is None:
            raise AssertionError(f"no one-step descent below {beta} in supp")
        beta = step
    columns = perms.rothe_diagram(w)
    parts = _basis_decomposition(beta, columns, n)
    if parts is None:
        raise AssertionError(f"no column-basis decomposition of {beta} exists")
    # matrix[j][i0]: the upper closure of column j, minus the erased boxes.
    matrix = [[int(i <= max(col, default=0)) for i in range(1, n + 1)] for col in columns]
    for i0 in range(n):
        surplus = sum(row[i0] for row in matrix) - alpha[i0]
        for j in range(n):
            if surplus == 0:
                break
            if matrix[j][i0] == 1 and parts[j][i0] == 0:
                matrix[j][i0] = 0
                surplus -= 1
        if surplus != 0:
            raise AssertionError(f"row {i0 + 1} cannot shed {surplus} more boxes")
    eps = [tuple(col) for col in matrix]
    assert tuple(map(sum, zip(*eps))) == alpha
    return eps


def _basis_decomposition(beta, columns, n):
    """Backtracking search for beta = sum of basis indicators, one per column."""
    bases_per_col = [sorted(base_points(col, n), reverse=True) for col in columns]

    def recurse(j, remaining):
        if j == len(bases_per_col):
            return [] if not any(remaining) else None
        for point in bases_per_col[j]:
            if all(p <= r for p, r in zip(point, remaining)):
                rest = recurse(j + 1, tuple(r - p for r, p in zip(remaining, point)))
                if rest is not None:
                    return [point] + rest
        return None

    return recurse(0, beta)


def sumset(A, B):
    """Deduplicated pointwise sumset {a + b} of two sets of tuples."""
    dims = set(map(len, A)) | set(map(len, B))
    if len(dims) > 1:
        raise ValueError(f"ambient dimension mismatch: {sorted(dims)}")
    return frozenset(tuple(map(operator.add, a, b)) for a in A for b in B)


def decoded(bits, n):
    """The exponent vectors of a bitset over the staircase box of S_n."""
    return frozenset(poly._boxes(n).points(bits))


def subsets(n):
    for k in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), k):
            yield frozenset(s)


def schubert_matroid_bases(S, n):
    """Bases of SM_n(S), read off `base_points`."""
    return frozenset(
        frozenset(i for i, b in enumerate(p, 1) if b) for p in base_points(S, n)
    )


def matroid_rank(bases, A):
    """r(A) = max over bases of #(A intersect B)."""
    A = frozenset(A)
    return max(len(A & B) for B in bases)


class TestSchubertMatroids:
    def test_examples(self):
        assert schubert_matroid_bases(frozenset({1}), 2) == {frozenset({1})}
        assert schubert_matroid_bases(frozenset(), 4) == {frozenset()}
        assert schubert_matroid_bases(frozenset({2, 3}), 3) == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }

    def test_basis_exchange(self):
        for n in (3, 4):
            for S in subsets(n):
                bases = schubert_matroid_bases(S, n)
                for B1 in bases:
                    for B2 in bases:
                        for b1 in B1 - B2:
                            assert any(
                                (B1 - {b1}) | {b2} in bases for b2 in B2 - B1
                            )

    def test_rank(self):
        bases = schubert_matroid_bases(frozenset({2, 3}), 3)
        assert matroid_rank(bases, frozenset()) == 0
        assert matroid_rank(bases, frozenset({1, 2, 3})) == 2
        assert matroid_rank(bases, frozenset({3})) == 1

    def test_rank_submodular(self):
        for n in (3, 4, 5):
            for S in subsets(n):
                bases = schubert_matroid_bases(S, n)
                ranks = {A: matroid_rank(bases, A) for A in subsets(n)}
                for A in ranks:
                    for B in ranks:
                        assert ranks[A] + ranks[B] >= ranks[A | B] + ranks[A & B]


class TestPoints:
    def test_examples(self):
        assert spanning_points(frozenset({1}), 1) == {(1,)}
        assert spanning_points(frozenset({1}), 2) == {(1, 0), (1, 1)}
        assert base_points(frozenset({2, 3}), 3) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_base_subset_of_spanning(self):
        for n in (3, 4):
            for S in subsets(n):
                assert base_points(S, n) <= spanning_points(S, n)

    def test_polytope_pair_descriptions(self):
        # lattice points agree with the rank-function inequality descriptions
        for n in (3, 4):
            for S in subsets(n):
                bases = schubert_matroid_bases(S, n)
                full = 1 << n
                rE = matroid_rank(bases, frozenset(range(1, n + 1)))

                def rank_of_mask(mask):
                    return matroid_rank(
                        bases, frozenset(i + 1 for i in range(n) if mask >> i & 1)
                    )

                # base polytope: r(E) - r(E \ I) <= sum <= r(I), tight at E
                y = [rE - rank_of_mask((full - 1) & ~m) for m in range(full)]
                z = [rank_of_mask(m) for m in range(full)]
                pair = SetFunctionPair(y, z, n)
                assert lattice_points_of_pair(pair) == base_points(S, n)
                # spanning polytope: r(E) - r(E \ I) <= sum <= |I|
                z_sp = [m.bit_count() for m in range(full)]
                pair_sp = SetFunctionPair(y, z_sp, n)
                assert lattice_points_of_pair(pair_sp) == spanning_points(S, n)


class TestSumset:
    def test_zero_identity(self):
        A = frozenset({(1, 0), (0, 2)})
        assert sumset(A, frozenset({(0, 0)})) == A

    def test_singletons(self):
        assert sumset(frozenset({(1, 0)}), frozenset({(0, 1)})) == {(1, 1)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sumset(frozenset({(1,)}), frozenset({(1, 0)}))

    def test_fms_sum_is_schubert_support_15324(self, tables):
        w = (1, 5, 3, 2, 4)
        assert decoded(polytopes.base_sumset(w), 5) == tables[(5, "S")][w].support()


class TestPairs:
    def test_recover_singleton(self):
        pair = recover_pair_points(frozenset({(2, 1)}))
        assert pair.y == pair.z
        assert pair.y[0b01] == 2 and pair.y[0b10] == 1 and pair.y[0b11] == 3

    def test_recover_132(self):
        pair = recover_pair_points(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert pair.y[0b01] == 0 and pair.z[0b01] == 1
        assert pair.y[0b11] == 1 and pair.z[0b11] == 2

    def test_recover_empty_rejected(self):
        with pytest.raises(ValueError):
            recover_pair_points(frozenset())

    def test_zero_pair_paramodular(self):
        n = 3
        zero = SetFunctionPair([0] * (1 << n), [0] * (1 << n), n)
        assert is_paramodular(zero)

    def test_violator(self):
        # z({1,2}) above the modular bound breaks submodularity
        z = [0, 1, 1, 5]
        y = [0, 0, 0, 0]
        assert not is_paramodular(SetFunctionPair(y, z, 2))

    def test_lattice_points_singleton(self):
        pair = recover_pair_points(frozenset({(1, 2)}))
        assert lattice_points_of_pair(pair) == {(1, 2)}

    def test_lattice_points_132(self):
        pair = recover_pair_points(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert lattice_points_of_pair(pair) == {(1, 0), (0, 1), (1, 1)}

    def test_grassmannian_pair_132(self):
        pair = grassmannian_pair((1, 0), (1, 1), 2)
        assert pair == recover_pair_points(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert is_paramodular(pair)
        assert lattice_points_of_pair(pair) == {(1, 0), (0, 1), (1, 1)}

    def test_pair_text(self):
        pair = recover_pair_points(frozenset({(1, 0)}))
        assert pair.to_text().splitlines()[0] == "0 0 0"


class TestConjecture4AndSuperset:
    def test_identity(self, tables):
        w = identity(4)
        g = tables[(4, "G")][w]
        assert check_conjecture_4(w, g).ok
        v = check_superset(w, g)
        assert v.ok and v.info["equality"]

    def test_15324(self, tables):
        w = (1, 5, 3, 2, 4)
        g = tables[(5, "G")][w]
        assert check_conjecture_4(w, g).ok

    def test_132_superset_equality(self, tables):
        w = (1, 3, 2)
        g = tables[(3, "G")][w]
        v = check_superset(w, g)
        assert v.ok and v.info["equality"]
        assert decoded(polytopes.spanning_sumset(w), 3) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_all_S4(self, tables):
        for w in perms.all_perms(4):
            g = tables[(4, "G")][w]
            s = tables[(4, "S")][w]
            assert check_conjecture_4(w, g).ok
            assert check_superset(w, g).ok
            assert check_fms(w, s).ok
            assert check_prop_converse(w, g).ok


class TestSumsetWitnesses:
    # The witness is the first point of the difference in tuple order,
    # which is not the order of degree, then term order: where there are two
    # candidates, the degree-first order would name the other one.

    def test_superset_names_first_point_outside(self, tables):
        w = (1, 5, 3, 2, 4)
        terms = vector_terms(tables[(5, "G")][w])
        terms.update({(0, 0, 2, 1, 0): 1, (1, 0, 0, 0, 0): 1})
        for ordered in (terms.items(), list(terms.items())[::-1]):
            verdict = check_superset(w, poly_of(dict(ordered), 5))
            assert not verdict.ok
            assert (verdict.witness, verdict.detail, verdict.info) == (
                (0, 0, 2, 1, 0),
                "support point outside sumset",
                {},
            )

    @pytest.mark.parametrize(
        "deleted, added, witness",
        [
            ((2, 2, 0, 0, 0), None, (2, 2, 0, 0, 0)),
            ((3, 1, 0, 0, 0), (0, 2, 2, 0, 0), (0, 2, 2, 0, 0)),
        ],
        ids=["deleted", "deleted-and-added"],
    )
    def test_fms_names_first_point_of_difference(self, tables, deleted, added, witness):
        w = (1, 5, 3, 2, 4)
        terms = {e: c for e, c in vector_terms(tables[(5, "S")][w]).items() if e != deleted}
        if added:
            terms[added] = 1
        for ordered in (terms.items(), list(terms.items())[::-1]):
            verdict = check_fms(w, poly_of(dict(ordered), 5))
            assert not verdict.ok
            assert (verdict.witness, verdict.detail) == (witness, "support != base sumset")


class TestConverse:
    def test_351624_both_sides_false(self, tables):
        w = (3, 5, 1, 6, 2, 4)
        v = check_prop_converse(w, tables[(6, "G")][w])
        assert v.ok
        assert not v.info["degree_saturated"]
        assert not v.info["sumset_equality"]

    def test_132_both_sides_true(self, tables):
        v = check_prop_converse((1, 3, 2), tables[(3, "G")][(1, 3, 2)])
        assert v.ok
        assert v.info["degree_saturated"] and v.info["sumset_equality"]


class TestDecompose:
    def test_identity(self, tables):
        w = identity(3)
        eps = decompose_support_point(
            w, (0, 0, 0), tables[(3, "G")][w], tables[(3, "S")][w]
        )
        assert eps == [(0, 0, 0)] * 3

    def test_132(self, tables):
        w = (1, 3, 2)
        eps = decompose_support_point(
            w, (1, 1, 0), tables[(3, "G")][w], tables[(3, "S")][w]
        )
        assert tuple(map(sum, zip(*eps))) == (1, 1, 0)
        assert eps[1] == (1, 1, 0)

    def test_15324_top_point(self, tables):
        w = (1, 5, 3, 2, 4)
        alpha = (3, 2, 1, 0, 0)
        eps = decompose_support_point(w, alpha, tables[(5, "G")][w], tables[(5, "S")][w])
        assert tuple(map(sum, zip(*eps))) == alpha

    def test_rejects_non_support_point(self, tables):
        w = (1, 3, 2)
        with pytest.raises(ValueError):
            decompose_support_point(
                w, (5, 0, 0), tables[(3, "G")][w], tables[(3, "S")][w]
            )

    def test_all_points_S4(self, tables):
        for w in perms.all_perms(4):
            g = tables[(4, "G")][w]
            s = tables[(4, "S")][w]
            cols = perms.rothe_diagram(w)
            for alpha in g.support():
                eps = decompose_support_point(w, alpha, g, s)
                assert tuple(map(sum, zip(*eps))) == alpha
                for j, part in enumerate(eps):
                    col = cols[j]
                    if not col:
                        assert not any(part)
                    else:
                        d = max(col)
                        padded = frozenset(
                            pad(p, 4) for p in spanning_points(col, d)
                        )
                        assert part in padded


class TestGrassmannian:
    def test_par_trivial(self):
        assert grassmannian_par((0, 0, 0)) == [(0, 0, 0)]

    def test_par_132(self):
        assert grassmannian_par((1, 0)) == [(1, 0), (1, 1)]

    def test_par_worked_example(self):
        assert grassmannian_par((5, 5, 1, 1)) == [
            (5, 5, 1, 1),
            (5, 5, 2, 1),
            (5, 5, 3, 1),
            (5, 5, 3, 2),
            (5, 5, 3, 3),
        ]

    def test_par_rejects_non_partition(self):
        with pytest.raises(ValueError):
            grassmannian_par((1, 2))

    def test_dominance(self):
        assert dominance_leq((1, 1), (1, 1))
        assert dominance_leq((1, 1), (2, 0))
        assert not dominance_leq((2, 0), (1, 1))

    def test_escobar_yong_132(self, tables):
        assert check_escobar_yong((1, 3, 2), tables[(3, "G")][(1, 3, 2)]).ok

    def test_escobar_yong_13524(self, tables):
        assert check_escobar_yong((1, 3, 5, 2, 4), tables[(5, "G")][(1, 3, 5, 2, 4)]).ok

    def test_escobar_yong_rejects_non_grassmannian(self, tables):
        verdict = check_escobar_yong((1, 5, 3, 2, 4), tables[(5, "G")][(1, 5, 3, 2, 4)])
        assert verdict == NotApplicable("not Grassmannian")

    def test_pair_rejects_non_grassmannian(self, tables):
        verdict = check_grassmannian_pair((1, 5, 3, 2, 4), tables[(5, "G")][(1, 5, 3, 2, 4)])
        assert verdict == NotApplicable("not Grassmannian")

    def test_pair_matches_recovered_S5(self, tables):
        for w in perms.all_perms(5):
            if grassmannian_shape(w) is None:
                continue
            assert check_grassmannian_pair(w, tables[(5, "G")][w]).ok


# Reference definitions: the direct scans the kernels in `polytopes` replace.


def recover_pair_scan(A):
    """Min and max of the coordinate sum over every mask, point by point."""
    A = list(A)
    n = len(A[0])
    y, z = [0] * (1 << n), [0] * (1 << n)
    for mask in range(1, 1 << n):
        sums = [sum(a[i] for i in range(n) if mask >> i & 1) for a in A]
        y[mask], z[mask] = min(sums), max(sums)
    return SetFunctionPair(y, z, n)


def recover_pair_loop(A):
    """Mask sums as one list per mask, s[m] = s[m & (m - 1)] + a[lowbit m],
    then their min and max."""
    A = list(A)
    n = len(A[0])
    columns = list(zip(*A))
    sums = [[0] * len(A)]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums.append([s + a for s, a in zip(sums[mask & (mask - 1)], columns[low])])
    return SetFunctionPair(list(map(min, sums)), list(map(max, sums)), n)


def paramodular_violation_loop(pair):
    """The local tests of `polytopes.paramodular_violation`, one inequality
    at a time: over masks S in increasing order, then i, then j, in the
    order z, y, f.  The loop that the packed compares replaced."""
    y, z, n = pair.y, pair.z, pair.n
    full = (1 << n) - 1

    def witness(test, S, a, b, lhs, rhs):
        i = (a ^ S).bit_length()
        j = None if b is None else (b ^ S).bit_length()
        return {"test": test, "mask": S, "i": i, "j": j, "lhs": lhs, "rhs": rhs}

    squares = [
        (S, S | 1 << i, S | 1 << j)
        for S in range(1 << n)
        for i in range(n)
        for j in range(i + 1, n)
        if not S & (1 << i | 1 << j)
    ]
    for S, a, b in squares:
        if z[a] + z[b] < z[a | b] + z[S]:
            return witness("z submodular", S, a, b, z[a] + z[b], z[a | b] + z[S])
    for S, a, b in squares:
        if y[a | b] + y[S] < y[a] + y[b]:
            return witness("y supermodular", S, a, b, y[a | b] + y[S], y[a] + y[b])
    f = [z[X] + y[full ^ X] for X in range(full + 1)]
    for S in range(1 << n):
        for i in range(n):
            a = S | 1 << i
            if a != S and f[a] < f[S]:
                return witness("f monotone", S, a, None, f[a], f[S])
    return None


def by_degree(points, above):
    """The maximal points (above=True) or the minimal ones: scanned in
    decreasing (increasing) degree, a point is kept iff no kept point lies
    above (below) it."""
    kept = []
    for a in sorted(points, key=sum, reverse=above):
        if not any(componentwise_leq(a, m) if above else componentwise_leq(m, a) for m in kept):
            kept.append(a)
    return frozenset(kept)


def componentwise_leq(alpha, beta):
    return all(map(operator.le, alpha, beta))


def check_conjecture_4_support(w, groth):
    """conj4 with the pair recovered from the whole support and the loop
    paramodularity test, as (ok, witness, detail)."""
    supp = groth.support()
    pair = recover_pair_loop(supp)
    violation = paramodular_violation_loop(pair)
    if violation is not None:
        return (False, violation, "recovered pair not paramodular")
    points = lattice_points_dfs(pair)
    if points != supp:
        return (False, sorted(points ^ supp)[0], "lattice points != support")
    return (True, None, "")


def assert_conj4_matches_support(w, groth, extremal=True):
    """The pair of the extremal points is the pair of the support, and conj4
    gives the verdict and witness of the whole-support reference."""
    supp = groth.support()
    if extremal:
        points = by_degree(supp, False) | by_degree(supp, True)
        assert recover_pair_points(points) == recover_pair_points(supp), w
    assert recover_pair(poly.support_view(groth)) == recover_pair_points(supp), w
    verdict = check_conjecture_4(w, groth)
    assert (verdict.ok, verdict.witness, verdict.detail) == check_conjecture_4_support(w, groth), w
    return verdict


def lattice_points_dfs(pair):
    """A second depth-first search, with the coordinates in order of
    increasing singleton range z(i) - y(i), the prefix sums of each node as
    a list, and the points collected as tuples."""
    n = pair.n
    if n == 0:
        return frozenset({()})
    order = sorted(range(n), key=lambda i: pair.z[1 << i] - pair.y[1 << i])
    masks = [0]
    for i in order:
        masks += [m | 1 << i for m in masks]
    ys = [[pair.y[m] for m in masks[1 << k:2 << k]] for k in range(n)]
    zs = [[pair.z[m] for m in masks[1 << k:2 << k]] for k in range(n)]
    points = []

    def visit(k, sums, prefix):
        lo = max(y - s for y, s in zip(ys[k], sums))
        hi = min(z - s for z, s in zip(zs[k], sums))
        if k == n - 1:
            points.extend(prefix + (t,) for t in range(lo, hi + 1))
            return
        for t in range(lo, hi + 1):
            visit(k + 1, sums + [s + t for s in sums], prefix + (t,))

    visit(0, [0], ())
    position = [order.index(i) for i in range(n)]
    return frozenset(tuple(p[k] for k in position) for p in points)


def assert_conj4_kernels_match_previous(table):
    """The packed kernels against the list-based loop and search, on every
    support of a table: the same pair, lattice points equal to the support,
    and no lattice point outside it by the bitset test."""
    for w, g in table.polys.items():
        supp = g.support()
        view = poly.support_view(g)
        pair = recover_pair(view)
        assert pair == recover_pair_loop(supp), w
        assert polytopes.paramodular_violation(pair) == paramodular_violation_loop(pair), w
        assert lattice_points_dfs(pair) == supp, w
        assert not polytopes._lattice_point_outside(view, pair), w


def is_paramodular_scan(pair):
    """Submodularity, supermodularity and the cross inequality over all
    O(4^n) pairs of subsets."""
    y, z, n = pair.y, pair.z, pair.n
    for I in range(1 << n):
        for J in range(1 << n):
            if z[I] + z[J] < z[I | J] + z[I & J]:
                return False
            if y[I] + y[J] > y[I | J] + y[I & J]:
                return False
            if z[I] - y[J] < z[I & ~J] - y[J & ~I]:
                return False
    return True


def lattice_points_scan(pair):
    """Every vector of the singleton box, tested against every mask."""
    n = pair.n
    singles = [range(pair.y[1 << i], pair.z[1 << i] + 1) for i in range(n)]
    return frozenset(
        t
        for t in itertools.product(*singles)
        if all(
            pair.y[mask] <= sum(t[i] for i in range(n) if mask >> i & 1) <= pair.z[mask]
            for mask in range(1 << n)
        )
    )


def assert_failing_inequality(pair, witness):
    """The witness of `paramodular_violation` names an inequality lhs >= rhs
    of its test that the pair breaks."""
    y, z, n = pair.y, pair.z, pair.n
    S, i, j = witness["mask"], witness["i"], witness["j"]
    a = S | 1 << (i - 1)
    if witness["test"] == "f monotone":
        full = (1 << n) - 1
        assert j is None and a != S
        sides = (z[a] + y[full ^ a], z[S] + y[full ^ S])
    else:
        b = S | 1 << (j - 1)
        assert i < j and a != S and b != S
        sides = {
            "z submodular": (z[a] + z[b], z[a | b] + z[S]),
            "y supermodular": (y[a | b] + y[S], y[a] + y[b]),
        }[witness["test"]]
    assert sides == (witness["lhs"], witness["rhs"])
    assert witness["lhs"] < witness["rhs"]


def assert_conj4_kernels_match(supp):
    pair = recover_pair_points(supp)
    assert pair == recover_pair_scan(supp)
    assert is_paramodular(pair) == is_paramodular_scan(pair)
    assert polytopes.paramodular_violation(pair) == paramodular_violation_loop(pair)
    assert lattice_points_of_pair(pair) == lattice_points_scan(pair)
    return pair


@st.composite
def set_function_pairs(draw):
    """The pair recovered from a few points of {0,1,2}^n, n <= 4, with one
    entry moved by -2..2: of 2000 examples, a third were paramodular."""
    n = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.sets(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
    base = recover_pair_points(frozenset(points))
    tables = [list(base.y), list(base.z)]
    mask = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    tables[draw(st.integers(0, 1))][mask] += draw(st.integers(-2, 2))
    return SetFunctionPair(tables[0], tables[1], n)


def scaled_pair(pair, factor):
    return SetFunctionPair([v * factor for v in pair.y], [v * factor for v in pair.z], pair.n)


point_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.sets(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=8)
)


def schubert_matroid_bases_def(S, n):
    """Bases of SM_n(S): the |S|-subsets of [n] dominated entrywise (sorted)
    by the sorted column S."""
    s = sorted(S)
    return frozenset(
        frozenset(a)
        for a in itertools.combinations(range(1, n + 1), len(s))
        if all(ai <= si for ai, si in zip(a, s))
    )


def indicator(subset, n):
    return tuple(1 if i in subset else 0 for i in range(1, n + 1))


def spanning_points_def(S, n):
    """Spanning sets as supersets of a basis, every subset against every
    basis."""
    bases = schubert_matroid_bases_def(S, n)
    return frozenset(
        indicator(span, n) for span in subsets(n) if any(B <= span for B in bases)
    )


def spanning_sumset_loop(w):
    """The spanning-set sumset column by column, by the basis definition."""
    n = len(w)
    total = frozenset({(0,) * n})
    for col in perms.rothe_diagram(w):
        if not col:
            continue
        pts = frozenset(pad(p, n) for p in spanning_points_def(col, max(col)))
        total = sumset(total, pts)
    return total


def base_sumset_loop(w):
    """The base-point sumset over every Rothe column, empty ones included,
    by the basis definition."""
    n = len(w)
    total = frozenset({(0,) * n})
    for col in perms.rothe_diagram(w):
        pts = frozenset(indicator(B, n) for B in schubert_matroid_bases_def(col, n))
        total = sumset(total, pts)
    return total


def assert_sumsets_match_loops(n):
    for w in perms.all_perms(n):
        assert decoded(polytopes.spanning_sumset(w), n) == spanning_sumset_loop(w), w
        assert decoded(polytopes.base_sumset(w), n) == base_sumset_loop(w), w


def grothendieck_by_chain(w):
    """𝔊_w by the recursion along the first-ascent chain from w_0: the
    staircase monomial, then one isobaric divided difference per step."""
    step = poly.recursion_parent(w)
    if step is None:
        return poly.staircase_monomial(len(w))
    j, parent = step
    return poly.isobaric_divided_difference(grothendieck_by_chain(parent), j)


class TestColumnSumsets:
    def test_gale_count_matches_basis_definition(self):
        for n in range(7):
            for S in subsets(n):
                bases = schubert_matroid_bases_def(S, n)
                assert base_points(S, n) == {indicator(B, n) for B in bases}, (S, n)
                assert spanning_points(S, n) == spanning_points_def(S, n), (S, n)

    def test_S6(self):
        assert_sumsets_match_loops(6)

    @pytest.mark.slow
    def test_S7_slow(self):
        assert_sumsets_match_loops(7)

    def test_S9_by_first_ascent_chain(self):
        # Past the sweep's range: the first w is Grassmannian, the third
        # has a sumset larger than its support.  The sumset checks, conj4
        # and mobius pass or skip.
        ws = [
            (2, 5, 7, 8, 9, 1, 3, 4, 6),
            (2, 1, 4, 3, 6, 5, 8, 7, 9),
            (3, 1, 2, 6, 4, 5, 9, 7, 8),
            (9, 7, 8, 5, 6, 3, 4, 1, 2),
        ]
        assert grassmannian_shape(ws[0]) is not None
        for w in ws:
            g = grothendieck_by_chain(w)
            superset = check_superset(w, g)
            assert superset.ok and superset.info["equality"] == (w != ws[2]), w
            assert check_fms(w, g).ok and check_prop_converse(w, g).ok, w
            assert decoded(polytopes.spanning_sumset(w), 9) == spanning_sumset_loop(w), w
            # conj4 on 512-lane pairs, mobius on P_w in the 9! box.
            for name in ("conj4", "mobius"):
                assert cli._run_check(name, w, g)["status"] in ("pass", "skip"), (name, w)
        # Only the last of them is zero-one; mobius on a zero-one w whose
        # P_w has 918 points.
        w = (7, 3, 8, 4, 1, 9, 5, 6, 2)
        assert perms.is_zero_one(w)
        assert cli._run_check("mobius", w, grothendieck_by_chain(w)) == {"status": "pass"}

    def test_spanning_sumset_kept_for_last_perm(self):
        w = (1, 5, 3, 2, 4)
        assert polytopes.spanning_sumset(w) is polytopes.spanning_sumset(w)

    def test_superset_and_converse_share_one_build(self, monkeypatch, sumset_builds):
        # fms reads the degree-l(w) slice of the same build: three calls
        # per w, one build.
        calls = []
        sumset = polytopes.spanning_sumset
        monkeypatch.setattr(polytopes, "spanning_sumset", lambda w: calls.append(w) or sumset(w))
        config = cli.RunConfig(n=5, checks=("superset", "fms", "converse"))
        report, status = cli.run(config)
        assert status == 0 and report["summary"]["pass"] == 360
        assert (len(sumset_builds), len(calls)) == (120, 360)
        assert set(sumset_builds) == set(perms.all_perms(5))


class TestKernelsAgainstScans:
    def test_S6(self, tables):
        for w in perms.all_perms(6):
            g = tables[(6, "G")][w]
            assert_conj4_kernels_match(g.support())
            assert assert_conj4_matches_support(w, g).ok

    def test_terms_deleted_S5(self, tables):
        # Supports with one or two terms removed, so that the failing
        # branches of conj4 run too.
        rng = random.Random(5)
        failures = lattice_failures = 0
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            if len(g.terms) < 3:
                continue
            terms = vector_terms(g)
            dropped = rng.sample(sorted(terms), rng.randint(1, 2))
            cut = poly_of({e: c for e, c in terms.items() if e not in dropped}, 5)
            pair = assert_conj4_kernels_match(cut.support())
            verdict = assert_conj4_matches_support(w, cut)
            if not is_paramodular(pair):
                assert not verdict.ok
                assert verdict.witness == polytopes.paramodular_violation(pair)
                assert_failing_inequality(pair, verdict.witness)
            elif not verdict.ok:
                assert verdict.detail == "lattice points != support"
                diff = lattice_points_scan(pair) ^ cut.support()
                assert verdict.witness == sorted(diff)[0]
                lattice_failures += 1
            failures += not verdict.ok
        assert failures > lattice_failures > 0

    def test_cut_supports_S4_to_S6(self, tables):
        # Supports with up to a third of their terms dropped, whose
        # recovered pair is paramodular: the bitset test finds a lattice
        # point outside the support exactly when the scan does.
        rng = random.Random(46)
        agreed = failing = 0
        for n in (4, 5, 6):
            for w, g in tables[(n, "G")].polys.items():
                terms = vector_terms(g)
                if len(terms) < 3:
                    continue
                for _ in range(3):
                    dropped = rng.sample(sorted(terms), rng.randint(1, len(terms) // 3))
                    cut = poly_of({e: c for e, c in terms.items() if e not in dropped}, n)
                    view = poly.support_view(cut)
                    pair = recover_pair(view)
                    if not is_paramodular(pair):
                        continue
                    outside = lattice_points_scan(pair) != cut.support()
                    assert polytopes._lattice_point_outside(view, pair) == outside, (w, dropped)
                    agreed += 1
                    failing += outside
        assert agreed > failing > 0

    def test_previous_kernels_S6(self, tables):
        assert_conj4_kernels_match_previous(tables[(6, "G")])

    @pytest.mark.slow
    def test_previous_kernels_S7_slow(self):
        table = g_table(7)
        assert_conj4_kernels_match_previous(table)
        # The pairwise scans for the extremal points cost |supp|^2: conj4's
        # verdicts alone are compared with the whole-support reference.
        for w, g in table.polys.items():
            assert_conj4_matches_support(w, g, extremal=False)

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_points_match_previous_search(self, pair):
        points = lattice_points_of_pair(pair)
        assert points == lattice_points_dfs(pair) == lattice_points_scan(pair)

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_is_paramodular(self, pair):
        assert is_paramodular(pair) == is_paramodular_scan(pair)
        witness = polytopes.paramodular_violation(pair)
        assert witness == paramodular_violation_loop(pair)
        assert (witness is None) == is_paramodular(pair)
        # Scaled values fill the byte lanes up to MAX_SPAN, and every
        # inequality scales with them; one more step is refused where the
        # pair is made.
        if pair.span:
            factor = polytopes.MAX_SPAN // pair.span
            wide = scaled_pair(pair, factor)
            assert polytopes.paramodular_violation(wide) == paramodular_violation_loop(wide)
            with pytest.raises(ValueError, match="too wide for the packed kernels"):
                scaled_pair(pair, factor + 1)
        if witness is not None:
            assert_failing_inequality(pair, witness)

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_lattice_points(self, pair):
        assert lattice_points_of_pair(pair) == lattice_points_scan(pair)

    @settings(max_examples=300, deadline=None)
    @given(point_sets)
    def test_recover_pair(self, A):
        assert recover_pair_points(A) == recover_pair_scan(A)
        assert recover_pair_points(A) == recover_pair_loop(A)


def assert_lanes_fit(monkeypatch, table, n):
    """conj4 recovers the pair of each support from its view, once per w,
    and the pair spans at most n(n-1)/2: the staircase box bounds it."""
    passed = []

    def spy(view):
        pair = recover_pair(view)
        passed.append(pair)
        return pair

    monkeypatch.setattr(polytopes, "recover_pair", spy)
    for w, g in table.polys.items():
        assert check_conjecture_4(w, g).ok
    assert len(passed) == len(table)
    bound = n * (n - 1) // 2
    for pair in passed:
        assert pair.lo == 0 and pair.span <= bound


def assert_view_pairs_match_points(table):
    """The pair from each support's view is the pair of its point set."""
    for w, g in table.polys.items():
        assert recover_pair(poly.support_view(g)) == recover_pair_points(g.support()), w


class TestViewPair:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_S1_to_S6(self, n):
        assert_view_pairs_match_points(g_table(n))

    @pytest.mark.slow
    def test_S7_slow(self):
        assert_view_pairs_match_points(g_table(7))


class TestLaneBound:
    # The byte lanes hold every support conj4 can see: the view holds only
    # keys, points of the staircase box, which exists only for n <= 10.

    def test_bound_within_max_span(self):
        with pytest.raises(ValueError, match="staircase box of S_11"):
            poly._Box(11)
        assert 10 * 9 // 2 <= polytopes.MAX_SPAN

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_S2_to_S6(self, tables, monkeypatch, n):
        table = tables[(n, "G")] if n > 2 else poly.build_table(2, "G")
        assert_lanes_fit(monkeypatch, table, n)

    @pytest.mark.slow
    def test_S7_slow(self, monkeypatch):
        assert_lanes_fit(monkeypatch, g_table(7), 7)


def formal_key(alpha):
    """|alpha| n! + sum of alpha_i w_i, the formula of `poly.code`, for a
    vector outside the staircase box too: there a digit carries, its digit
    sum falls below its degree part, and it is no key."""
    n = len(alpha)
    return sum(alpha) * math.factorial(n) + sum(a * math.perm(n, i) for i, a in enumerate(alpha))


def no_key_support(alpha):
    """The polynomial 1 + x^alpha for alpha outside the staircase box: no
    polynomial can hold alpha (`poly.code` refuses it), so this one holds
    its formal key, which the support view refuses."""
    n = len(alpha)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(alpha))} lies outside the staircase box of S_{n}$"):
        poly_of({(0,) * n: 1, alpha: 1}, n)
    return Poly({0: 1, formal_key(alpha): 1}, n)


class TestPackedRefusal:
    # The packed kernels refuse inputs whose bytes would carry or borrow;
    # conj4 never sees one, since no key lies outside the staircase box,
    # and the driver reports the view's refusal of an integer that is no
    # key as an internal error, not a verdict.

    def test_recover_pair_refuses_wide_columns(self):
        # Coordinate ranges 40 + 24 > MAX_SPAN; 40 + 23 fit.
        assert recover_pair_points(frozenset({(0, 0), (40, 23)})).span == polytopes.MAX_SPAN
        with pytest.raises(ValueError, match="packed columns"):
            recover_pair_points(frozenset({(0, 0), (40, 24)}))
        entry = cli._run_check("conj4", (2, 1), no_key_support((40, 24)))
        assert entry["status"] == "error"
        assert entry["witness"] == "ValueError: 216 is no key of S_2: its degree part is 108, its digit sum 0"

    def test_lattice_search_refuses_wide_pair(self):
        # recover_pair packs a range of 63, but the pair it makes spans 64:
        # no pair wider than MAX_SPAN is made, so none reaches the search.
        with pytest.raises(ValueError, match="span 64, too wide for the packed kernels"):
            recover_pair_points(frozenset({(1,), (64,)}))
        with pytest.raises(ValueError, match="span 64, too wide for the packed kernels"):
            SetFunctionPair([0, -64], [0, 0], 1)
        entry = cli._run_check("conj4", (1,), no_key_support((64,)))
        assert entry["status"] == "error"
        assert entry["witness"] == "ValueError: 128 is no key of S_1: its degree part is 128, its digit sum 0"

    def test_widest_accepted_pair(self):
        # Every kernel takes a span of MAX_SPAN; conj4 never sees such a
        # support, since no key lies outside the staircase box.
        support = frozenset({(0,), (63,)})
        pair = recover_pair_points(support)
        assert pair.span == polytopes.MAX_SPAN
        assert is_paramodular(pair)
        assert lattice_points_of_pair(pair) == {(t,) for t in range(64)}
        with pytest.raises(ValueError, match=r"^126 is no key of S_1"):
            check_conjecture_4((1,), no_key_support((63,)))


class TestParamodularWitness:
    def test_hand_made_pair(self):
        # The pair of {(1,1,0), (0,0,1)}: z({3}) + z({1,2,3}) = 1 + 2 exceeds
        # z({1,3}) + z({2,3}) = 1 + 1, so z is not submodular at S = {3}.
        pair = recover_pair_points(frozenset({(1, 1, 0), (0, 0, 1)}))
        assert not is_paramodular_scan(pair)
        witness = polytopes.paramodular_violation(pair)
        assert witness == {"test": "z submodular", "mask": 0b100, "i": 1, "j": 2, "lhs": 2, "rhs": 3}
        assert_failing_inequality(pair, witness)

    def test_monotone_failure(self):
        # y and z modular, but y({1}) = 1 > z({1}) = 0: f({1}) = z({1}) < f({}) = y({1}).
        pair = SetFunctionPair([0, 1], [0, 0], 1)
        assert not is_paramodular_scan(pair)
        assert polytopes.paramodular_violation(pair) == {
            "test": "f monotone", "mask": 0, "i": 1, "j": None, "lhs": 0, "rhs": 1,
        }

    def test_conj4_lattice_failure_witness(self):
        # The pair of {(0,0,0), (2,0,0)} is paramodular, and its lattice
        # points add (1,0,0): the first point of the difference in sorted
        # order.
        g = poly_of({(0, 0, 0): 1, (2, 0, 0): 1}, 3)
        assert is_paramodular(recover_pair(poly.support_view(g)))
        verdict = check_conjecture_4((3, 2, 1), g)
        assert not verdict.ok
        assert verdict.witness == (1, 0, 0)
        assert verdict.detail == "lattice points != support"
        assert verdict.entry["witness"] == [1, 0, 0]

    def test_conj4_failure_carries_witness(self):
        # test_hand_made_pair's points with a zero x_4 appended, inside the
        # staircase box of S_4.
        verdict = check_conjecture_4((1, 2, 4, 3), poly_of({(1, 1, 0, 0): 1, (0, 0, 1, 0): 1}, 4))
        assert not verdict.ok
        assert verdict.detail == "recovered pair not paramodular"
        assert verdict.witness["test"] == "z submodular"
        assert verdict.entry["witness"]["mask"] == 0b100
