import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import cache, cli, perms, polytopes
from grothpoly.poly import Poly, decode
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
)


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
    columns = polytopes._rothe_columns(w)
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


def decoded(codes, n):
    """The exponent vectors of a set of codes of length n."""
    return frozenset(decode(c, n) for c in codes)


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
        pair = recover_pair(frozenset({(2, 1)}))
        assert pair.y == pair.z
        assert pair.y[0b01] == 2 and pair.y[0b10] == 1 and pair.y[0b11] == 3

    def test_recover_132(self):
        pair = recover_pair(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert pair.y[0b01] == 0 and pair.z[0b01] == 1
        assert pair.y[0b11] == 1 and pair.z[0b11] == 2

    def test_recover_empty_rejected(self):
        with pytest.raises(ValueError):
            recover_pair(frozenset())

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
        pair = recover_pair(frozenset({(1, 2)}))
        assert lattice_points_of_pair(pair) == {(1, 2)}

    def test_lattice_points_132(self):
        pair = recover_pair(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert lattice_points_of_pair(pair) == {(1, 0), (0, 1), (1, 1)}

    def test_grassmannian_pair_132(self):
        pair = grassmannian_pair((1, 0), (1, 1), 2)
        assert pair == recover_pair(frozenset({(1, 0), (0, 1), (1, 1)}))
        assert is_paramodular(pair)
        assert lattice_points_of_pair(pair) == {(1, 0), (0, 1), (1, 1)}

    def test_pair_text(self):
        pair = recover_pair(frozenset({(1, 0)}))
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
        terms = dict(tables[(5, "G")][w].terms)
        terms.update({(0, 0, 0, 0, 5): 1, (0, 0, 0, 1, 0): 1})
        for ordered in (terms.items(), list(terms.items())[::-1]):
            verdict = check_superset(w, Poly(dict(ordered), 5))
            assert not verdict.ok
            assert (verdict.witness, verdict.detail, verdict.info) == (
                (0, 0, 0, 0, 5),
                "support point outside sumset",
                {},
            )

    @pytest.mark.parametrize(
        "deleted, added, witness",
        [
            ((2, 2, 0, 0, 0), None, (2, 2, 0, 0, 0)),
            ((3, 1, 0, 0, 0), (0, 0, 4, 0, 0), (0, 0, 4, 0, 0)),
        ],
        ids=["deleted", "deleted-and-added"],
    )
    def test_fms_names_first_point_of_difference(self, tables, deleted, added, witness):
        w = (1, 5, 3, 2, 4)
        terms = {e: c for e, c in tables[(5, "S")][w].terms.items() if e != deleted}
        if added:
            terms[added] = 1
        for ordered in (terms.items(), list(terms.items())[::-1]):
            verdict = check_fms(w, Poly(dict(ordered), 5))
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
            cols = polytopes._rothe_columns(w)
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
                            polytopes._pad(p, 4) for p in spanning_points(col, d)
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


def lattice_points_dfs(pair):
    """The search that `polytopes._LatticeSearch` packs, unpacked: the
    prefix sums of each node as a list, every level searched, and the points
    collected as tuples."""
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
    support of a table: the same pair, and a lattice count of |supp|."""
    for w, g in table.polys.items():
        supp = g.support()
        pair = recover_pair(supp)
        assert pair == recover_pair_loop(supp), w
        points = lattice_points_dfs(pair)
        assert points == supp, w
        assert polytopes._LatticeSearch(pair).count(len(supp)) == len(points), w


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
    pair = recover_pair(supp)
    assert pair == recover_pair_scan(supp)
    assert is_paramodular(pair) == is_paramodular_scan(pair)
    assert lattice_points_of_pair(pair) == lattice_points_scan(pair)
    return pair


@st.composite
def set_function_pairs(draw):
    """The pair recovered from a few points of {0,1,2}^n, n <= 4, with one
    entry moved by -2..2: of 2000 examples, a third were paramodular."""
    n = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.sets(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
    base = recover_pair(frozenset(points))
    tables = [list(base.y), list(base.z)]
    mask = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    tables[draw(st.integers(0, 1))][mask] += draw(st.integers(-2, 2))
    return SetFunctionPair(tables[0], tables[1], n)


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
    for col in polytopes._rothe_columns(w):
        if not col:
            continue
        pts = frozenset(polytopes._pad(p, n) for p in spanning_points_def(col, max(col)))
        total = sumset(total, pts)
    return total


def base_sumset_loop(w):
    """The base-point sumset over every Rothe column, empty ones included,
    by the basis definition."""
    n = len(w)
    total = frozenset({(0,) * n})
    for col in polytopes._rothe_columns(w):
        pts = frozenset(indicator(B, n) for B in schubert_matroid_bases_def(col, n))
        total = sumset(total, pts)
    return total


def assert_sumsets_match_loops(n):
    for w in perms.all_perms(n):
        assert decoded(polytopes.spanning_sumset(w), n) == spanning_sumset_loop(w), w
        assert decoded(polytopes.base_sumset(w), n) == base_sumset_loop(w), w


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

    def test_spanning_sumset_kept_for_last_perm(self):
        w = (1, 5, 3, 2, 4)
        assert polytopes.spanning_sumset(w) is polytopes.spanning_sumset(w)

    def test_superset_and_converse_share_one_build(self):
        # fms reads the degree-l(w) slice of the same build.
        polytopes.spanning_sumset.cache_clear()
        config = cli.RunConfig(n=5, checks=("superset", "fms", "converse"))
        report, status = cli.run(config)
        assert status == 0 and report["summary"]["pass"] == 360
        info = polytopes.spanning_sumset.cache_info()
        assert (info.misses, info.hits) == (120, 240)


class TestKernelsAgainstScans:
    def test_S6(self, tables):
        for w in perms.all_perms(6):
            assert_conj4_kernels_match(tables[(6, "G")][w].support())

    def test_terms_deleted_S5(self, tables):
        # Supports with one or two terms removed, so that the failing
        # branches of conj4 run too.
        rng = random.Random(5)
        failures = lattice_failures = 0
        for w in perms.all_perms(5):
            g = tables[(5, "G")][w]
            if len(g.terms) < 3:
                continue
            dropped = rng.sample(sorted(g.terms), rng.randint(1, 2))
            cut = Poly({e: c for e, c in g.terms.items() if e not in dropped}, 5)
            pair = assert_conj4_kernels_match(cut.support())
            verdict = check_conjecture_4(w, cut)
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

    def test_previous_kernels_S6(self, tables):
        assert_conj4_kernels_match_previous(tables[(6, "G")])

    @pytest.mark.slow
    def test_previous_kernels_S7_slow(self):
        assert_conj4_kernels_match_previous(cache.load_or_build(None, 7, "G"))

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_count_matches_previous_search(self, pair):
        points = lattice_points_dfs(pair)
        assert lattice_points_of_pair(pair) == points
        count = polytopes._LatticeSearch(pair).count(len(points))
        assert count == len(points)
        if points:
            assert polytopes._LatticeSearch(pair).count(len(points) - 1) == len(points)

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_is_paramodular(self, pair):
        assert is_paramodular(pair) == is_paramodular_scan(pair)
        witness = polytopes.paramodular_violation(pair)
        assert (witness is None) == is_paramodular(pair)
        if witness is not None:
            assert_failing_inequality(pair, witness)

    @settings(max_examples=300, deadline=None)
    @given(set_function_pairs())
    def test_lattice_points(self, pair):
        assert lattice_points_of_pair(pair) == lattice_points_scan(pair)

    @settings(max_examples=300, deadline=None)
    @given(point_sets)
    def test_recover_pair(self, A):
        assert recover_pair(A) == recover_pair_scan(A)
        assert recover_pair(A) == recover_pair_loop(A)


class TestPackedRefusal:
    # The packed kernels refuse inputs whose bytes would carry or borrow;
    # the driver reports the refusal as an internal error, not a verdict.

    def test_recover_pair_refuses_wide_columns(self):
        # Coordinate ranges 200 + 100 >= 256.
        g = Poly({(0, 0): 1, (200, 100): 1}, 2)
        with pytest.raises(ValueError, match="packed columns"):
            recover_pair(g.support())
        entry = cli._run_check("conj4", (2, 1), g)
        assert entry["status"] == "error"
        assert entry["witness"].startswith("ValueError: coordinate ranges sum to 300")

    def test_lattice_search_refuses_wide_pair(self):
        # recover_pair accepts a range of 130, the search needs a span < 128.
        g = Poly({(0,): 1, (130,): 1}, 1)
        pair = recover_pair(g.support())
        assert is_paramodular(pair)
        with pytest.raises(ValueError, match="packed search"):
            lattice_points_of_pair(pair)
        entry = cli._run_check("conj4", (1,), g)
        assert entry["status"] == "error"
        assert entry["witness"].startswith("ValueError: pair values span 130")

    def test_widest_accepted_pair(self):
        verdict = check_conjecture_4((1,), Poly({(0,): 1, (127,): 1}, 1))
        assert verdict.witness == (1,) and verdict.detail == "lattice points != support"


class TestParamodularWitness:
    def test_hand_made_pair(self):
        # The pair of {(1,1,0), (0,0,1)}: z({3}) + z({1,2,3}) = 1 + 2 exceeds
        # z({1,3}) + z({2,3}) = 1 + 1, so z is not submodular at S = {3}.
        pair = recover_pair(frozenset({(1, 1, 0), (0, 0, 1)}))
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
        # The pair of {(0,0), (2,0)} is paramodular, and its lattice points
        # add (1,0): the first point of the difference in sorted order.
        g = Poly({(0, 0): 1, (2, 0): 1}, 2)
        assert is_paramodular(recover_pair(g.support()))
        verdict = check_conjecture_4((2, 1), g)
        assert not verdict.ok
        assert verdict.witness == (1, 0)
        assert verdict.detail == "lattice points != support"
        assert cli._from_verdict(verdict)["witness"] == [1, 0]

    def test_conj4_failure_carries_witness(self):
        verdict = check_conjecture_4((1, 3, 2), Poly({(1, 1, 0): 1, (0, 0, 1): 1}, 3))
        assert not verdict.ok
        assert verdict.detail == "recovered pair not paramodular"
        assert verdict.witness["test"] == "z submodular"
        assert cli._from_verdict(verdict)["witness"]["mask"] == 0b100
