"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them)
and enforces the stated wall-clock budget.  Together they exercise the whole
stack: exact polynomial tables and their oracle, the combinatorial
invariants, the conjecture checkers, and report determinism.
"""

import time

import pytest

from grothpoly import cli, perms, pipedreams, polytopes, posets
from grothpoly.poly import build_table, parse_text
from reference import (
    check_escobar_yong,
    check_grassmannian_pair,
    grassmannian_par,
    grassmannian_shape,
    graded_component,
    is_fireworks,
    rajcode_fireworks,
    term_key,
)

G_15324_TEXT = (
    "1:3,1,0,0,0;1:2,2,0,0,0;-1:3,2,0,0,0;1:1,3,0,0,0;-1:2,3,0,0,0;"
    "1:3,0,1,0,0;1:2,1,1,0,0;-2:3,1,1,0,0;1:1,2,1,0,0;-2:2,2,1,0,0;"
    "1:3,2,1,0,0;1:0,3,1,0,0;-2:1,3,1,0,0;1:2,3,1,0,0"
)

G_351624_TEXT = (
    "1:3,3,1,0,0,0;1:3,2,2,0,0,0;1:2,3,2,0,0,0;-2:3,3,2,0,0,0;"
    "1:3,3,0,1,0,0;1:3,2,1,1,0,0;1:2,3,1,1,0,0;-3:3,3,1,1,0,0;"
    "-1:3,2,2,1,0,0;-1:2,3,2,1,0,0;2:3,3,2,1,0,0;1:3,2,0,2,0,0;"
    "1:2,3,0,2,0,0;-2:3,3,0,2,0,0;-1:3,2,1,2,0,0;-1:2,3,1,2,0,0;"
    "2:3,3,1,2,0,0"
)


@pytest.fixture(scope="module")
def t6g():
    return build_table(6, "G")


@pytest.fixture(scope="module")
def t6s():
    return build_table(6, "S")


def report(name, ok, elapsed):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok


def test_criterion_01_golden_15324():
    start = time.monotonic()
    table = build_table(5, "G")
    g = table[(1, 5, 3, 2, 4)]
    expected = parse_text(G_15324_TEXT, 5, {})
    ok = g == expected and len(g.terms) == 14
    ok = ok and sorted(g.terms.values()) == sorted(
        [1] * 7 + [-1, -1, -2, -2, -2] + [1, 1]
    )
    elapsed = time.monotonic() - start
    report("01 golden polynomial 15324", ok and elapsed < 1.0, elapsed)


def test_criterion_02_golden_351624(t6g):
    start = time.monotonic()
    g = t6g[(3, 5, 1, 6, 2, 4)]
    ok = g == parse_text(G_351624_TEXT, 6, {})
    ok = ok and {c for c in g.terms.values() if abs(c) > 1} == {-3, -2, 2}
    elapsed = time.monotonic() - start
    report("02 golden polynomial 351624", ok and elapsed < 1.0, elapsed)


def test_criterion_03_oracle_equivalence_S5():
    start = time.monotonic()
    t5g = build_table(5, "G")
    t5s = build_table(5, "S")
    pd_g = pipedreams.pd_polynomial_all(5, "grothendieck")
    pd_s = pipedreams.pd_polynomial_all(5, "schubert")
    ok = all(
        pd_g[w] == t5g[w] and pd_s[w] == t5s[w] for w in perms.all_perms(5)
    )
    elapsed = time.monotonic() - start
    report("03 pipe-dream oracle S5", ok and elapsed < 60.0, elapsed)


def test_criterion_04_principal_specialization(t6g):
    start = time.monotonic()
    ok = all(
        t6g[w].principal_specialization() == 1 for w in perms.all_perms(6)
    )
    pd_g = pipedreams.pd_polynomial_all(4, "grothendieck")
    ok = ok and all(
        pd_g[w].principal_specialization() == 1 for w in perms.all_perms(4)
    )
    elapsed = time.monotonic() - start
    report("04 specialization + euler", ok and elapsed < 60.0, elapsed)


def test_criterion_05_leading_term(t6g):
    start = time.monotonic()
    ok = True
    for w in perms.all_perms(6):
        rc = perms.rajcode(w)
        g = t6g[w]
        ok = ok and g.degree() == sum(rc) and max(g.support(), key=term_key) == rc
    report("05 degree and leading exponent", ok, time.monotonic() - start)


def test_criterion_06_divisibility(t6g):
    start = time.monotonic()
    ok = True
    for w in perms.all_perms(6):
        g = t6g[w]
        bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
        supp = g.support()
        for alpha in supp:
            ok = ok and all(a <= b for a, b in zip(alpha, bound))
        lw = perms.length(w)
        for beta in supp:
            if sum(beta) == lw:
                continue
            ok = ok and any(
                sum(a) == sum(beta) - 1 and all(x <= y for x, y in zip(a, beta))
                for a in supp
            )
    report("06 upwards/downwards divisibility", ok, time.monotonic() - start)


def test_criterion_07_fireworks(t6g):
    start = time.monotonic()
    ok = True
    for w in perms.all_perms(6):
        if not is_fireworks(w):
            continue
        g = t6g[w]
        wt = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
        ok = ok and graded_component(g, g.degree()).support() == {wt}
        ok = ok and rajcode_fireworks(w) == perms.rajcode(w) == wt
    report("07 fireworks top support", ok, time.monotonic() - start)


def test_criterion_08_grassmannian(t6g):
    start = time.monotonic()
    ok = True
    for w in perms.all_perms(6):
        if grassmannian_shape(w) is None:
            continue
        g = t6g[w]
        ok = ok and check_escobar_yong(w, g).ok
        ok = ok and check_grassmannian_pair(w, g).ok
    ok = ok and grassmannian_par((5, 5, 1, 1)) == [
        (5, 5, 1, 1),
        (5, 5, 2, 1),
        (5, 5, 3, 1),
        (5, 5, 3, 2),
        (5, 5, 3, 3),
    ]
    report("08 grassmannian supports", ok, time.monotonic() - start)


def test_criterion_09_conjecture_suite():
    start = time.monotonic()
    config6 = cli.RunConfig(
        n=6,
        checks=("conj1", "conj2", "conj3", "conj4", "coeff", "mobius"),
        jobs=4,
    )
    report6, status6 = cli.run(config6)
    config5 = cli.RunConfig(n=5, checks=("superset", "fms"), jobs=4)
    report5, status5 = cli.run(config5)
    ok = status6 == 0 and status5 == 0
    ok = ok and report6["summary"]["fail"] == 0
    ok = ok and report5["summary"]["fail"] == 0
    # mobius is attempted exactly on the zero-one permutations
    zero_one = sum(1 for w in perms.all_perms(6) if perms.is_zero_one(w))
    skipped = sum(
        1
        for rec in report6["results"]
        if rec["checks"]["mobius"]["status"] == "skip"
    )
    ok = ok and skipped == 720 - zero_one
    elapsed = time.monotonic() - start
    report("09 conjecture suite S6/S5", ok and elapsed < 600.0, elapsed)


@pytest.mark.slow
def test_conjecture_battery_S7_slow():
    config = cli.RunConfig(
        n=7,
        checks=("conj1", "conj2", "conj3", "conj4", "coeff", "mobius"),
        jobs=2,
    )
    report7, status = cli.run(config)
    assert status == 0
    assert report7["summary"]["all_pass"]
    assert report7["summary"]["permutations"] == 5040


def test_criterion_10_implication_consistency(t6g):
    start = time.monotonic()
    ok = True
    for w in perms.all_perms(6):
        g = t6g[w]
        c1 = posets.check_conjecture_1(w, g).ok
        c2 = posets.check_conjecture_2(w, g).ok
        c3 = posets.check_conjecture_3(w, g).ok
        c4 = polytopes.check_conjecture_4(w, g).ok
        if c1 and c3:
            ok = ok and c2
        if c4:
            ok = ok and c3
    report("10 implication consistency", ok, time.monotonic() - start)


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    renders = []
    for jobs in (1, 4):
        report_obj, status = cli.run(cli.RunConfig(n=5, jobs=jobs))
        renders.append(cli.render(report_obj, "json").encode())
        assert status == 0
    cache_dir = str(tmp_path)
    for _ in ("cold", "warm"):
        report_obj, status = cli.run(
            cli.RunConfig(n=5, jobs=2, cache_dir=cache_dir)
        )
        renders.append(cli.render(report_obj, "json").encode())
        assert status == 0
    ok = len(set(renders)) == 1
    report("11 byte-identical reports", ok, time.monotonic() - start)
