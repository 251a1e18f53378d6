import itertools
from typing import Iterable, List

import pytest

from grothpoly import perms, pipedreams
from grothpoly.poly import Poly, build_table

# Reference definitions the pipe-dream walk is checked against: the strand
# trace (the definition of the permutation of a cross set) and the Demazure
# product of the reading word (Knutson-Miller).


def check_grid(crosses: Iterable[tuple], n: int) -> frozenset:
    crosses = frozenset(crosses)
    for (i, j) in crosses:
        if i + j > n:
            raise ValueError(f"cross {(i, j)} lies in the south-east triangle")
    return crosses


def demazure_product(word: Iterable[int], n: int) -> tuple:
    """0-Hecke product: fold generators left to right, absorbing any s_j that
    would shorten the running permutation."""
    u = perms.identity(n)
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


def walk_leaves(n: int, reduced: bool) -> list:
    """(cross set, w, absorbed) for every leaf of the pipe-dream walk."""
    leaves = []

    def leaf(crosses, u, weight, absorbed):
        rows = [i for (i, _) in crosses]
        assert weight == [rows.count(r) for r in range(1, n + 1)]
        leaves.append((frozenset(crosses), tuple(u), absorbed))

    pipedreams._walk(n, reduced, leaf)
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
            assert trace_strands(frozenset(), n) == perms.identity(n)

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
        assert pipedreams.enumerate_pipe_dreams(perms.identity(3), "reduced") == {
            frozenset()
        }

    def test_w0_single_dream(self):
        w0 = perms.longest_element(4)
        full = frozenset(pipedreams.staircase_cells(4))
        assert pipedreams.enumerate_pipe_dreams(w0, "reduced") == {full}
        assert pipedreams.enumerate_pipe_dreams(w0, "all") == {full}

    def test_132_all(self):
        dreams = pipedreams.enumerate_pipe_dreams((1, 3, 2), "all")
        assert dreams == {
            frozenset({(1, 2)}),
            frozenset({(2, 1)}),
            frozenset({(1, 2), (2, 1)}),
        }

    def test_rpd_subset_of_pd_S4(self):
        for w in perms.all_perms(4):
            rpd = pipedreams.enumerate_pipe_dreams(w, "reduced")
            pd = pipedreams.enumerate_pipe_dreams(w, "all")
            lw = perms.length(w)
            assert rpd <= pd
            for P in pd:
                assert len(P) >= lw
                assert (len(P) == lw) == (P in rpd)

    def test_pd_1432_cardinality_frozen(self):
        # regression value, cross-validated by the oracle equivalence tests
        assert len(pipedreams.enumerate_pipe_dreams((1, 4, 3, 2), "all")) == 11

    def test_size_guard(self):
        with pytest.raises(ValueError):
            pipedreams.enumerate_pipe_dreams(perms.identity(8), "all")


class TestPolynomials:
    def test_132_grothendieck(self):
        f = pipedreams.pd_polynomial((1, 3, 2), "grothendieck")
        assert f == Poly.from_text("1:1,0,0;1:0,1,0;-1:1,1,0", 3)

    def test_w0_staircase(self):
        f = pipedreams.pd_polynomial(perms.longest_element(4), "grothendieck")
        assert f == Poly.monomial((3, 2, 1, 0), 4)

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
        f = pipedreams.pd_polynomial((1, 4, 3, 2), "grothendieck")
        assert f == tables[(4, "G")][(1, 4, 3, 2)]

    def test_rpd_count_is_schubert_specialization_S4(self, tables):
        for w in perms.all_perms(4):
            rpd = pipedreams.enumerate_pipe_dreams(w, "reduced")
            assert len(rpd) == tables[(4, "S")][w].principal_specialization()


class TestEuler:
    def test_132(self):
        assert pipedreams.interior_euler_check((1, 3, 2)) == 1

    def test_w0(self):
        assert pipedreams.interior_euler_check(perms.longest_element(3)) == 1

    def test_all_S4(self):
        for w in perms.all_perms(4):
            assert pipedreams.interior_euler_check(w) == 1


def test_dream_text_form():
    assert pipedreams.dream_to_text({(2, 1), (1, 2)}, 3) == "3 (1,2) (2,1)"


@pytest.mark.slow
def test_oracle_equivalence_S7_slow():
    for flavor, mode in (("S", "schubert"), ("G", "grothendieck")):
        table = build_table(7, flavor)
        pd = pipedreams.pd_polynomial_all(7, mode)
        for w in perms.all_perms(7):
            assert pd[w] == table[w]
