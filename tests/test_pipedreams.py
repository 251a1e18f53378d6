import itertools
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

import pytest

from grothpoly import perms, pipedreams, poly
from grothpoly.poly import Poly, build_table, isobaric_divided_difference, parse_text
from reference import (
    divided_difference,
    identity,
    pd_polynomial_all_vectors,
    poly_of,
    vector_terms,
)

# Reference definitions: the strand trace (the definition of the permutation
# of a cross set), the Demazure product of the reading word (Knutson-Miller),
# and a walk over every cross subset, checked against both.  The transfer-
# matrix recursion in `pipedreams` is checked against the walk.


def check_grid(crosses: Iterable[tuple], n: int) -> frozenset:
    crosses = frozenset(crosses)
    for (i, j) in crosses:
        if i + j > n:
            raise ValueError(f"cross {(i, j)} lies in the south-east triangle")
    return crosses


def demazure_product(word: Iterable[int], n: int) -> tuple:
    """0-Hecke product: fold generators left to right, absorbing any s_j that
    would shorten the running permutation."""
    u = identity(n)
    for j in word:
        if u[j - 1] < u[j]:
            u = perms.apply_s(u, j)
    return u


def reading_word(crosses: Iterable[tuple], n: int) -> List[int]:
    """Cross (i,j) contributes s_{i+j-1}; rows read top to bottom, each row
    right to left."""
    word = []
    for i in range(1, n):
        row = sorted((j for (ii, j) in crosses if ii == i), reverse=True)
        word.extend(i + j - 1 for j in row)
    return word


def trace_strands(crosses: Iterable[tuple], n: int) -> tuple:
    """Follow the strands through the grid and read the permutation down the
    left edge, treating second crossings among the same strands as elbows.

    Tile behaviour: a cross passes the top strand down and the right strand
    left; an elbow turns the top strand left and the right strand down.
    """
    crosses = check_grid(crosses, n)
    crossed = set()
    left_out = {}  # (i, j) -> strand exiting the left edge of the cell
    bottom_out = {}  # (i, j) -> strand exiting the bottom edge
    w = [0] * n
    for i in range(1, n + 1):
        for j in range(n, 0, -1):
            top = bottom_out.get((i - 1, j)) if i > 1 else j
            right = left_out.get((i, j + 1)) if j < n else None
            acts_as_cross = False
            if (i, j) in crosses and top is not None and right is not None:
                pair = frozenset((top, right))
                if pair not in crossed:
                    crossed.add(pair)
                    acts_as_cross = True
            if acts_as_cross:
                left_out[(i, j)], bottom_out[(i, j)] = right, top
            else:
                left_out[(i, j)], bottom_out[(i, j)] = top, right
        exiting = left_out[(i, 1)]
        if exiting is None:
            raise AssertionError(f"no strand exits row {i}")
        w[i - 1] = exiting
    return tuple(w)


def all_cross_subsets(n: int):
    cells = pipedreams.staircase_cells(n)
    for k in range(len(cells) + 1):
        yield from (frozenset(sub) for sub in itertools.combinations(cells, k))


def walk(n: int, reduced: bool, leaf: Callable[[list, list, list, int], None]) -> None:
    """Visit every cross subset of the staircase, depth first in reading
    order, calling leaf(crosses, w, weight, absorbed) once per subset.

    The walk carries the running Demazure product u: a cross (i,j) applies
    s_k, k = i+j-1, when u(k) < u(k+1) and is absorbed otherwise.  At a leaf
    u is the permutation w of the cross set, and the number of absorbed
    crosses is #crosses - l(w).  With reduced=True the walk prunes at the
    first absorbed cross, so it visits only the reduced pipe dreams.  The
    lists passed to leaf are the walk's own; copy what must be kept.
    """
    reading_order = sorted(pipedreams.staircase_cells(n), key=lambda c: (c[0], -c[1]))
    cells = [(i, j, i + j - 1) for i, j in reading_order]
    last = len(cells)
    u = list(range(1, n + 1))
    weight = [0] * n
    crosses: List[tuple] = []

    def visit(t: int, absorbed: int) -> None:
        if t == last:
            leaf(crosses, u, weight, absorbed)
            return
        i, j, k = cells[t]
        visit(t + 1, absorbed)
        crosses.append((i, j))
        weight[i - 1] += 1
        if u[k - 1] < u[k]:
            u[k - 1], u[k] = u[k], u[k - 1]
            visit(t + 1, absorbed)
            u[k - 1], u[k] = u[k], u[k - 1]
        elif not reduced:
            visit(t + 1, absorbed + 1)
        crosses.pop()
        weight[i - 1] -= 1

    visit(0, 0)
    del visit  # break the closure's reference to itself, freeing leaf's state now


def enumerate_pipe_dreams(w: tuple, mode: str) -> set:
    """All pipe dreams of w.  mode="reduced" keeps only those with exactly
    l(w) crosses (RPD); mode="all" keeps every cross set whose Demazure
    product is w (PD)."""
    if mode not in ("reduced", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    target = list(w)
    found = set()

    def leaf(crosses, u, weight, absorbed):
        if u == target:
            found.add(frozenset(crosses))

    walk(len(w), mode == "reduced", leaf)
    return found


def walk_polynomials(n: int, mode: str) -> Dict[tuple, Poly]:
    """The pipe-dream polynomials summed leaf by leaf over the walk: unsigned
    over RPD for mode="schubert", signed by (-1)^(#crosses - l(w)) over PD
    for mode="grothendieck"."""
    buckets: Dict[tuple, Dict[tuple, int]] = defaultdict(dict)

    def leaf(crosses, u, weight, absorbed):
        terms = buckets[tuple(u)]
        expo = tuple(weight)
        terms[expo] = terms.get(expo, 0) + (-1 if absorbed & 1 else 1)

    walk(n, mode == "schubert", leaf)
    return {
        w: poly_of({e: c for e, c in buckets[w].items() if c}, n)
        for w in perms.all_perms(n)
    }


def walk_leaves(n: int, reduced: bool) -> list:
    """(cross set, w, absorbed) for every leaf of the pipe-dream walk."""
    leaves = []

    def leaf(crosses, u, weight, absorbed):
        rows = [i for (i, _) in crosses]
        assert weight == [rows.count(r) for r in range(1, n + 1)]
        leaves.append((frozenset(crosses), tuple(u), absorbed))

    walk(n, reduced, leaf)
    return leaves


class TestDemazureProduct:
    def test_single_generator(self):
        assert demazure_product([1], 2) == (2, 1)

    def test_idempotent(self):
        assert demazure_product([1, 1], 2) == (2, 1)

    def test_absorbing_word(self):
        assert demazure_product([3, 2, 3, 3], 4) == (1, 4, 3, 2)


class TestTraceStrands:
    def test_empty_is_identity(self):
        for n in (2, 3, 4, 5):
            assert trace_strands(frozenset(), n) == identity(n)

    def test_full_staircase_is_w0(self):
        for n in (2, 3, 4, 5):
            full = frozenset(pipedreams.staircase_cells(n))
            assert trace_strands(full, n) == perms.longest_element(n)

    def test_double_crossing_resolves(self):
        assert trace_strands({(1, 2), (2, 1)}, 3) == (1, 3, 2)

    def test_rejects_southeast_cross(self):
        with pytest.raises(ValueError):
            trace_strands({(3, 3)}, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_demazure_of_reading_word(self, n):
        for crosses in all_cross_subsets(n):
            word = reading_word(crosses, n)
            assert trace_strands(crosses, n) == demazure_product(word, n)


class TestWalk:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_trace_strands(self, n):
        leaves = walk_leaves(n, reduced=False)
        traced = {crosses: trace_strands(crosses, n) for crosses in all_cross_subsets(n)}
        assert len(leaves) == len(traced)
        assert {crosses: w for crosses, w, _ in leaves} == traced
        for crosses, w, absorbed in leaves:
            assert absorbed == len(crosses) - perms.length(w)
        unabsorbed = [(crosses, w, 0) for crosses, w, absorbed in leaves if absorbed == 0]
        assert walk_leaves(n, reduced=True) == unabsorbed


class TestEnumeration:
    def test_identity_reduced(self):
        assert enumerate_pipe_dreams(identity(3), "reduced") == {
            frozenset()
        }

    def test_w0_single_dream(self):
        w0 = perms.longest_element(4)
        full = frozenset(pipedreams.staircase_cells(4))
        assert enumerate_pipe_dreams(w0, "reduced") == {full}
        assert enumerate_pipe_dreams(w0, "all") == {full}

    def test_132_all(self):
        dreams = enumerate_pipe_dreams((1, 3, 2), "all")
        assert dreams == {
            frozenset({(1, 2)}),
            frozenset({(2, 1)}),
            frozenset({(1, 2), (2, 1)}),
        }

    def test_rpd_subset_of_pd_S4(self):
        for w in perms.all_perms(4):
            rpd = enumerate_pipe_dreams(w, "reduced")
            pd = enumerate_pipe_dreams(w, "all")
            lw = perms.length(w)
            assert rpd <= pd
            for P in pd:
                assert len(P) >= lw
                assert (len(P) == lw) == (P in rpd)

    def test_pd_1432_cardinality_frozen(self):
        # regression value, cross-validated by the oracle equivalence tests
        assert len(enumerate_pipe_dreams((1, 4, 3, 2), "all")) == 11


class TestPolynomials:
    def test_132_grothendieck(self):
        f = pipedreams.pd_polynomial_all(3, "grothendieck")[(1, 3, 2)]
        assert f == parse_text("1:1,0,0;1:0,1,0;-1:1,1,0", 3, {})

    def test_w0_staircase(self):
        f = pipedreams.pd_polynomial_all(4, "grothendieck")[perms.longest_element(4)]
        assert f == poly_of({(3, 2, 1, 0): 1}, 4)

    def test_oracle_equivalence_S4(self, tables):
        pd_g = pipedreams.pd_polynomial_all(4, "grothendieck")
        pd_s = pipedreams.pd_polynomial_all(4, "schubert")
        for w in perms.all_perms(4):
            assert pd_g[w] == tables[(4, "G")][w]
            assert pd_s[w] == tables[(4, "S")][w]

    def test_oracle_equivalence_S6(self, tables):
        for flavor, mode in (("S", "schubert"), ("G", "grothendieck")):
            pd = pipedreams.pd_polynomial_all(6, mode)
            for w in perms.all_perms(6):
                assert pd[w] == tables[(6, flavor)][w]

    def test_1432_oracle(self, tables):
        f = pipedreams.pd_polynomial_all(4, "grothendieck")[(1, 4, 3, 2)]
        assert f == tables[(4, "G")][(1, 4, 3, 2)]

    def test_rpd_count_is_schubert_specialization_S4(self, tables):
        for w in perms.all_perms(4):
            rpd = enumerate_pipe_dreams(w, "reduced")
            assert len(rpd) == tables[(4, "S")][w].principal_specialization()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_divided_differences_match_pipe_dreams(self, n):
        """The walk of the first-ascent tree, which every verify and print
        run checks, against the pipe dreams, in both flavors: the
        independent computation of every polynomial the checks read."""
        for flavor, mode in (("S", "schubert"), ("G", "grothendieck")):
            assert build_table(n, flavor).polys == pipedreams.pd_polynomial_all(n, mode)

    def test_keys_are_one_digit_S7(self):
        """Every key of 𝔊_w over S_7, from the walk and from the pipe
        dreams, is below 2^30, one digit of a Python int (`poly.code`)."""
        one_digit = 2**30
        walked = poly.walk(perms.longest_element(7), poly.staircase_monomial(7), isobaric_divided_difference)
        assert all(max(f.terms) < one_digit for _, f in walked)
        dreamed = pipedreams.pd_polynomial_all(7, "grothendieck")
        assert all(max(f.terms) < one_digit for f in dreamed.values())

    @pytest.mark.parametrize("mode", ["schubert", "grothendieck"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recursion_matches_walk(self, n, mode):
        assert pipedreams.pd_polynomial_all(n, mode) == walk_polynomials(n, mode)

    @pytest.mark.parametrize("mode", ["schubert", "grothendieck"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_codes_match_tuple_engine(self, n, mode):
        # The transfer matrix on keys, decoded, is the one on exponent
        # tuples that it replaced, and equal keys are one shared int.
        built = pipedreams.pd_polynomial_all(n, mode)
        assert {w: vector_terms(f) for w, f in built.items()} == pd_polynomial_all_vectors(n, mode)
        assert_shares_codes(built)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pipedreams.pd_polynomial_all(3, "bogus")


def euler_characteristic(w: tuple) -> int:
    """Alternating sum (-1)^(#crosses - l(w)) over PD(w), the principal
    specialization of the pipe-dream Grothendieck polynomial; equals 1 for
    every permutation."""
    return pipedreams.pd_polynomial_all(len(w), "grothendieck")[w].principal_specialization()


class TestEuler:
    def test_132(self):
        assert euler_characteristic((1, 3, 2)) == 1

    def test_w0(self):
        assert euler_characteristic(perms.longest_element(3)) == 1

    def test_all_S4(self):
        for w in perms.all_perms(4):
            assert euler_characteristic(w) == 1


def assert_shares_codes(polys: Dict[tuple, Poly]) -> None:
    shared = {}
    for f in polys.values():
        for e in f.terms:
            assert shared.setdefault(e, e) is e


@pytest.mark.slow
def test_codes_match_tuple_engine_S7_slow():
    for mode in ("schubert", "grothendieck"):
        built = pipedreams.pd_polynomial_all(7, mode)
        assert {w: vector_terms(f) for w, f in built.items()} == pd_polynomial_all_vectors(7, mode)


@pytest.mark.slow
@pytest.mark.parametrize("flavor, mode", [("S", "schubert"), ("G", "grothendieck")])
def test_oracle_equivalence_S8_slow(flavor, mode):
    # Streamed from the walk, so only the pipe-dream table is held.
    step = isobaric_divided_difference if flavor == "G" else divided_difference
    pd = pipedreams.pd_polynomial_all(8, mode)
    for w, f in poly.walk(perms.longest_element(8), poly.staircase_monomial(8), step):
        assert pd.pop(w) == f, w
    assert pd == {}
