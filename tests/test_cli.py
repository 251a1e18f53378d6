import copy
import dataclasses
import gc
import hashlib
import json
import operator
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import cache, cli, perms, pipedreams, poly, posets, polytopes, verdicts
from grothpoly.verdicts import PASS, NotApplicable, Verdict
from reference import add, divided_difference, poly_of

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _roundtrip(table, cache_dir):
    """Write the table to the cache and return the copy read back."""
    path = cache.cache_path(str(cache_dir), table.n, table.flavor)
    cache.write_table(table, path)
    return cache.read_table(path, table.n, table.flavor)


def _edit_g(monkeypatch, w, edit):
    """Check edit(𝔊_w) at w, as if the walk had yielded it, while the walk
    goes on from the true 𝔊_w."""
    real = cli._check_one

    def check(config, u, g):
        return real(config, u, edit(g) if u == w else g)

    monkeypatch.setattr(cli, "_check_one", check)


def _outside_box_g(monkeypatch, w):
    """Check x_1^n at w, one past the staircase box of S_n: it has a code
    (`poly.code`), and the packed support view refuses it."""

    def x1_to_the_n(g):
        return poly.Poly({poly.code((g.nvars,) + (0,) * (g.nvars - 1)): 1}, g.nvars)

    _edit_g(monkeypatch, w, x1_to_the_n)


def _counting_forks(monkeypatch) -> list:
    """The pid of each child that `cli.run` forks from this process."""
    forked = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def _assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(path: Path):
    """Block until a forked worker has created path, so that the worker
    has taken a task before this process goes on with its own."""
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, f"no worker created {path}"
        time.sleep(0.005)


def _operator_calls(fn):
    """fn's result and the divided-difference operators it applied in this
    process."""
    before = poly.OPERATOR_APPLICATIONS
    result = fn()
    return result, poly.OPERATOR_APPLICATIONS - before


class TestCache:
    # The keys of the `tables` fixture.
    @pytest.mark.parametrize("n, flavor", [(n, f) for n in (3, 4, 5, 6) for f in "SG"])
    def test_roundtrip_identity(self, tables, tmp_path, n, flavor):
        table = tables[(n, flavor)]
        reloaded = _roundtrip(table, tmp_path)
        assert reloaded.polys == table.polys
        # Equal exponent vectors are one shared int, their code, in the
        # reloaded table.
        shared = {}
        for p in reloaded.polys.values():
            for expo in p.terms:
                assert shared.setdefault(expo, expo) is expo

    def test_write_matches_to_text(self, tables, tmp_path):
        # One vector-text dict per file gives the bytes of `to_text` per line.
        for (n, flavor), table in tables.items():
            path = cache.cache_path(str(tmp_path), n, flavor)
            cache.write_table(table, path)
            lines = open(path).read().splitlines()
            assert lines[1:] == [f"{perms.format_perm(w)}|{table[w].to_text()}" for w in sorted(table.polys)]

    @pytest.mark.parametrize(
        "n, flavor, expected",
        [
            (5, "S", "588c61ea9d8eefb1abe5f5768086f8dcd71ca1cb2aae728c2dbf27517f5d4273"),
            (5, "G", "d3fb993c059f8fbbe95cde08df04e08572cc21d0b4ff7d32d25fe03938185a6d"),
            (6, "S", "2c850f1a4aec6e80133bd14db1ee80d8d3b965008a49fc848fffa5888e01c589"),
            (6, "G", "57f6d23f68186eddd3b626fa2ab20feeb7e2d2240aab7c7a8e8a9ea2dbf9a4d6"),
            # The benchmark's set-up gate on `--mode cache --n 7`.
            pytest.param(7, "S", json.loads(DIGESTS.read_text())["n7_S"], marks=pytest.mark.slow),
            pytest.param(7, "G", json.loads(DIGESTS.read_text())["n7_G"], marks=pytest.mark.slow),
        ],
    )
    def test_cache_mode_file_bytes(self, tmp_path, n, flavor, expected):
        """The bytes `--mode cache` writes, pinned by sha256: at n = 7 the
        digests of perfbench/digests.json."""
        assert cli.main(["--n", str(n), "--mode", "cache", "--cache-dir", str(tmp_path)]) == 0
        data = Path(cache.cache_path(str(tmp_path), n, flavor)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected

    @pytest.mark.slow
    def test_cache_roundtrip_S7_slow(self, tmp_path):
        for flavor in ("S", "G"):
            table = poly.build_table(7, flavor)
            reloaded = _roundtrip(table, tmp_path)
            assert reloaded.polys == table.polys

    def test_byte_stable(self, tables, tmp_path):
        table = tables[(3, "G")]
        path = cache.cache_path(str(tmp_path), 3, "G")
        cache.write_table(table, path)
        first = open(path, "rb").read()
        cache.write_table(table, path)
        assert open(path, "rb").read() == first

    def test_failed_write_keeps_old_file(self, tables, tmp_path, monkeypatch):
        # The writer renames a finished temp file over the cache file, so a
        # write that raises leaves the old file whole and no temp file.
        path = cache.cache_path(str(tmp_path), 3, "G")
        cache.write_table(tables[(3, "G")], path)
        first = open(path, "rb").read()

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            cache.write_table(tables[(4, "G")], path)
        assert open(path, "rb").read() == first
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    def test_failed_format_keeps_old_file(self, tables, tmp_path, monkeypatch):
        # The writer streams lines into the temp file; a failure after some
        # lines are written still leaves the old file whole and no temp file.
        path = cache.cache_path(str(tmp_path), 3, "G")
        cache.write_table(tables[(3, "G")], path)
        first = open(path, "rb").read()
        to_text = poly.Poly.to_text
        calls = []

        def failing(self, texts=None):
            calls.append(self)
            if len(calls) > 2:
                raise MemoryError("out of memory")
            return to_text(self, texts)

        monkeypatch.setattr(poly.Poly, "to_text", failing)
        with pytest.raises(MemoryError):
            cache.write_table(tables[(4, "G")], path)
        assert open(path, "rb").read() == first
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    def test_empty_table(self, tmp_path):
        table = poly.PolynomialTable(3, "G", {})
        path = cache.cache_path(str(tmp_path), 3, "G")
        cache.write_table(table, path)
        assert open(path).read() == "grothcache v1 n=3 flavor=G\n"

    def test_header_mismatch_ignored(self, tables, tmp_path):
        path = cache.cache_path(str(tmp_path), 4, "G")
        cache.write_table(tables[(3, "G")], path)  # wrong n in header
        assert cache.read_table(path, 4, "G") is None

    @pytest.mark.parametrize(
        "body",
        [
            "not-a-polynomial",
            "0:1,0,0",
            "1:1,0",
            "1:-1,0,0",
            "1:1,0,0;2:1,0,0",
            "1:1,0,0:2",
            "1:1,0,0;",
            "x:1,0,0",
            "1:1,,0",
            "1:3,0,0",
            "1:1,0,0:1;0,1,0",
            "1;1,0,0:1:0,1,0",
            "",
        ],
        ids=[
            "garbage",
            "zero-coefficient",
            "short-exponent",
            "negative-exponent",
            "repeated-exponent",
            "two-colons",
            "empty-chunk",
            "non-integer-coefficient",
            "empty-exponent-entry",
            "outside-staircase",
            "colons-shifted",
            "separators-swapped",
            "empty-body",
        ],
    )
    def test_corrupt_line_is_hard_error(self, tmp_path, body):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write(f"grothcache v1 n=3 flavor=G\n1,2,3|{body}\n")
        with pytest.raises(ValueError, match=":2:"):
            cache.read_table(path, 3, "G")

    def test_corrupt_line_after_good_line(self, tmp_path):
        """Line 3 reuses line 2's exponent text, already in the reader's
        vector table, with a zero coefficient."""
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("grothcache v1 n=3 flavor=G\n1,2,3|1:1,0,0\n1,3,2|0:1,0,0\n")
        with pytest.raises(ValueError, match=":3:"):
            cache.read_table(path, 3, "G")

    @pytest.mark.parametrize(
        "words",
        [("1,2",), ("1,2,4",), ("1,1,2",), ("1,2,3", "1,3,2", "1,2,3")],
        ids=["short-word", "out-of-range", "not-a-bijection", "repeated-word"],
    )
    def test_bad_word_is_hard_error(self, tmp_path, words):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("grothcache v1 n=3 flavor=G\n" + "".join(f"{w}|1:1,0,0\n" for w in words))
        with pytest.raises(ValueError, match=f":{len(words) + 1}: corrupt cache line"):
            cache.read_table(path, 3, "G")

    @pytest.mark.parametrize(
        "edit",
        [lambda data: data[:-1], lambda data: data.replace(b"\n", b"\r\n")],
        ids=["no-final-newline", "crlf"],
    )
    def test_line_endings_read_the_same_table(self, tables, tmp_path, edit):
        path = cache.cache_path(str(tmp_path), 4, "G")
        cache.write_table(tables[(4, "G")], path)
        data = open(path, "rb").read()
        open(path, "wb").write(edit(data))
        assert cache.read_table(path, 4, "G").polys == tables[(4, "G")].polys

    def test_blank_line_counts_toward_line_numbers(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("grothcache v1 n=3 flavor=G\n1,2,3|1:0,0,0\n\n1,3,2|0:1,0,0\n")
        with pytest.raises(ValueError, match=":4: corrupt cache line"):
            cache.read_table(path, 3, "G")

    def test_empty_body_is_refused(self, tmp_path, capsys):
        """No 𝔊_w is zero: an empty body is a corrupt line, and `--mode
        cache`, the one mode that reads the cache, names its file and line
        instead of keeping the file."""
        assert cli.main(["--n", "4", "--mode", "cache", "--cache-dir", str(tmp_path)]) == 0
        path = Path(cache.cache_path(str(tmp_path), 4, "G"))
        lines = path.read_text().splitlines(keepends=True)
        assert lines[2].startswith("1,2,4,3|")
        lines[2] = "1,2,4,3|\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        message = "corrupt cache line: empty polynomial; none in a table is zero"
        assert cli.main(["--n", "4", "--mode", "cache", "--cache-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}:3: {message}\n"

    def test_warm_cache_skips_recompute(self, tmp_path, monkeypatch):
        real = pipedreams.pd_polynomial_all
        built = []

        def counting(n, mode):
            built.append((n, mode))
            return real(n, mode)

        monkeypatch.setattr(pipedreams, "pd_polynomial_all", counting)
        cache_dir = str(tmp_path)
        cold = cache.load_or_build(cache_dir, 4, "G")
        assert built == [(4, "grothendieck")]
        warm = cache.load_or_build(cache_dir, 4, "G")
        assert built == [(4, "grothendieck")]
        assert warm.polys == cold.polys


class TestRun:
    def test_n3_all_checks(self):
        report, status = cli.run(cli.RunConfig(n=3))
        assert status == 0
        assert len(report["results"]) == 6
        assert report["summary"]["fail"] == 0
        assert report["summary"]["all_pass"]

    def test_single_perm_mode(self):
        config = cli.RunConfig(
            n=5,
            perm=(1, 5, 3, 2, 4),
            checks=("conj1", "conj3", "coeff", "mobius"),
        )
        report, status = cli.run(config)
        assert status == 0
        (record,) = report["results"]
        assert record["perm"] == "1,5,3,2,4"
        assert all(e["status"] == "pass" for e in record["checks"].values())

    def test_list_perm_is_stored_as_checked(self):
        # validate stores the tuple it checked, so the table lookup sees a
        # hashable key.
        report, status = cli.run(cli.RunConfig(n=3, perm=[1, 3, 2]))
        assert status == 0
        assert report["meta"]["perm"] == "1,3,2"
        assert report["results"][0]["perm"] == "1,3,2"

    def test_oracle_sweep_n4(self):
        report, status = cli.run(cli.RunConfig(n=4, checks=("oracle",)))
        assert status == 0
        assert report["summary"]["pass"] == 24

    def test_oracle_failure_witness(self, monkeypatch):
        # The walked 𝔊_132 gains 5 x_2 + 7 x_1^2.  132 has one ascent, k = 1,
        # and π_1 sends 5 x_2 to 5 (x_1 + x_2 - 1): the constant term comes
        # first in term order.
        extra = poly.parse_text("5:0,1,0;7:2,0,0", 3, {})
        _edit_g(monkeypatch, (1, 3, 2), lambda g: add(g, extra))
        witness = {"perm": "1,3,2", "k": 1, "exponent": [0, 0, 0], "expected": -5, "walked": 0}
        report, status = cli.run(cli.RunConfig(n=3, checks=("oracle",)))
        assert status == 1
        assert report["summary"]["failures"] == [{"perm": "1,3,2", "check": "oracle"}]
        assert report["results"][1]["checks"]["oracle"] == {"status": "fail", "witness": witness}
        # The walk goes on from the true 𝔊_132, so nothing else fails.
        assert cli.run(cli.RunConfig(n=3, perm=(1, 3, 2), checks=("oracle",)))[1] == 1
        assert cli.run(cli.RunConfig(n=3, perm=(1, 2, 3), checks=("oracle",)))[1] == 0

    def test_oracle_failure_witness_at_w0(self, monkeypatch):
        # At w_0 the walked 𝔊 is compared with the staircase monomial; there
        # is no ascent k.
        _edit_g(monkeypatch, (3, 2, 1), lambda g: poly_of({(2, 1, 0): 1, (3, 0, 0): -2}, 3))
        report, status = cli.run(cli.RunConfig(n=3, perm=(3, 2, 1), checks=("oracle",)))
        assert status == 1
        assert report["results"][0]["checks"]["oracle"]["witness"] == {
            "perm": "3,2,1",
            "k": None,
            "exponent": [3, 0, 0],
            "expected": 0,
            "walked": -2,
        }

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_wrong_walked_polynomial_is_caught(self, monkeypatch, n):
        """One term x_k added to the walked 𝔊_u, for each u != w_0 and k the
        last ascent of u, the one the oracle checks: x^e with e_k != e_{k+1}
        is not symmetric in x_k and x_{k+1}, so π_k moves it.  The full
        sweep fails at u alone, with the same report for one and two jobs,
        and --perm w fails exactly when w = u.

        π_k cannot see a term symmetric in x_k and x_{k+1}, such as x_1^n
        for k >= 2; the pipe-dream comparison of the tests and the euler
        check can."""
        top = perms.longest_element(n)
        for u in perms.all_perms(n):
            if u == top:
                continue
            k = perms.ascents(u)[-1]
            x_k = poly_of({tuple(int(i == k) for i in range(1, n + 1)): 1}, n)
            with monkeypatch.context() as m:
                _edit_g(m, u, lambda g: add(g, x_k))
                reports = []
                for jobs in (1, 2):
                    report, status = cli.run(cli.RunConfig(n=n, checks=("oracle",), jobs=jobs))
                    assert status == 1
                    reports.append(cli.render(report, "json"))
                assert reports[0] == reports[1]
                assert report["summary"]["failures"] == [{"perm": perms.format_perm(u), "check": "oracle"}]
                entry = report["results"][perms.all_perms(n).index(u)]["checks"]["oracle"]
                assert entry["witness"]["k"] == k
                for w in perms.all_perms(n):
                    _, status = cli.run(cli.RunConfig(n=n, perm=w, checks=("oracle",)))
                    assert status == (1 if w == u else 0), (u, w)
        # 1243 has last ascent 2, and x_1^4 is symmetric in x_2 and x_3.
        if n == 4:
            u = (1, 2, 4, 3)
            _edit_g(monkeypatch, u, lambda g: add(g, poly_of({(4, 0, 0, 0): 1}, 4)))
            report, status = cli.run(cli.RunConfig(n=4, perm=u, checks=("oracle", "euler")))
            checks = report["results"][0]["checks"]
            assert (checks["oracle"]["status"], checks["euler"]["status"]) == ("pass", "fail")

    @pytest.mark.parametrize(
        "parts", [((0, 1),), ((0, 1), (1, 1))], ids=["plain-d", "beta-plus-one"]
    )
    def test_broken_operator_fails_the_oracle(self, monkeypatch, parts):
        """A wrong operator in place of `poly.isobaric_divided_difference`,
        in the walk and the oracle alike: the plain d_j, or the sign of
        β = +1, d_j((1 + x_{j+1}) f).  Neither is idempotent on what it
        builds, so the oracle fails at every w != w_0 of S_5."""
        monkeypatch.setattr(poly, "isobaric_divided_difference", lambda f, j: poly._closed_form(f, j, parts))
        report, status = cli.run(cli.RunConfig(n=5, checks=("oracle",)))
        assert status == 1
        failed = [f["perm"] for f in report["summary"]["failures"]]
        assert failed == [perms.format_perm(w) for w in perms.all_perms(5)[:-1]]

    def test_operator_calls(self, monkeypatch, tmp_path, capsys):
        """The divided differences build every 𝔊 a verify or print run
        reads: one per edge of the walk, n! - 1 over a full sweep, and one
        per step of the chain from w_0, l(w_0) - l(w) for --perm w or
        --mode print.  The oracle adds one per w != w_0.  `--mode cache`
        builds from pipe dreams, and no run builds the divided-difference
        table."""

        def refused(n, flavor):
            raise AssertionError("a run built the divided-difference table")

        monkeypatch.setattr(poly, "build_table", refused)
        for fn, expected in [
            (lambda: cli.run(cli.RunConfig(n=4, checks=("euler", "conj1"))), 23),
            (lambda: cli.main(["--mode", "print", "--perm", "1432"]), 6 - 3),
            (lambda: cli.main(["--n", "4", "--mode", "cache", "--cache-dir", str(tmp_path)]), 0),
        ]:
            assert _operator_calls(fn)[1] == expected
        for n in (4, 5):
            (_, status), count = _operator_calls(lambda: cli.run(cli.RunConfig(n=n, checks=("oracle",))))
            assert status == 0 and count == 2 * (len(perms.all_perms(n)) - 1)
        # The chain from w_0 has l(w_0) - l(w) steps: n(n-1)/2 = 15 at the
        # identity.
        for w in [(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1), (2, 1, 4, 3, 6, 5), (1, 3, 2, 6, 5, 4)]:
            config = cli.RunConfig(n=6, perm=w, checks=("oracle",))
            (_, status), count = _operator_calls(lambda: cli.run(config))
            assert status == 0 and count == 15 - perms.length(w) + (perms.length(w) < 15)

    def test_schubert_table_loaded_only_when_read(self, monkeypatch, tmp_path, capsys):
        """Only `--mode cache` loads a table, and only it builds 𝔖."""
        real = cache.load_or_build
        loaded = []

        def counting(cache_dir, n, flavor):
            loaded.append(flavor)
            return real(cache_dir, n, flavor)

        monkeypatch.setattr(cache, "load_or_build", counting)
        battery = ("conj1", "conj2", "conj3", "coeff", "rajchgot")
        for checks in [
            battery,
            ("conj4", "mobius", "superset", "converse", "euler"),
            ("fms",),
            ("conj1", "oracle"),
            cli.ALL_CHECKS,
        ]:
            loaded.clear()
            _, status = cli.run(cli.RunConfig(n=4, checks=checks, cache_dir=str(tmp_path)))
            assert status == 0 and loaded == [], checks
        assert cli.main(["--mode", "print", "--perm", "1432", "--cache-dir", str(tmp_path)]) == 0
        assert loaded == []
        assert cli.main(["--n", "4", "--mode", "cache", "--cache-dir", str(tmp_path)]) == 0
        assert loaded == ["G", "S"]

    def test_checker_exception_is_an_error(self, monkeypatch):
        real = posets.check_conjecture_1

        def broken(w, g):
            if w == (1, 3, 2):
                raise RuntimeError("boom")
            return real(w, g)

        monkeypatch.setattr(posets, "check_conjecture_1", broken)
        report, status = cli.run(cli.RunConfig(n=3, checks=("conj1", "conj2"), jobs=2))
        assert status == 3
        summary = report["summary"]
        assert (summary["pass"], summary["fail"], summary["error"]) == (11, 0, 1)
        assert summary["errors"] == [{"perm": "1,3,2", "check": "conj1"}]
        assert summary["failures"] == [] and not summary["all_pass"]
        checks = report["results"][1]["checks"]
        assert checks["conj1"] == {"status": "error", "witness": "RuntimeError: boom"}
        assert checks["conj2"]["status"] == "pass"
        text = cli.render(report, "text")
        assert "error=1" in text and "ERROR 1,3,2 conj1" in text
        _assert_no_children()

    def test_exit_three_on_error(self, monkeypatch, capsys):
        def broken(w, g):
            raise ValueError("bad input")

        monkeypatch.setattr(posets, "check_conjecture_2", broken)
        assert cli.main(["--n", "3", "--checks", "conj1,conj2"]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["summary"]["error"] == 6
        assert "error: check conj2 on 1,3,2:" in err and "ValueError: bad input" in err

    def test_no_error_keys_without_errors(self):
        report, status = cli.run(cli.RunConfig(n=3, checks=("conj1",)))
        assert status == 0
        assert "error" not in report["summary"] and "errors" not in report["summary"]
        assert "error" not in cli.render(report, "text")

    def test_mobius_skip_reason(self):
        config = cli.RunConfig(n=5, perm=(1, 2, 5, 4, 3), checks=("mobius",))
        report, _ = cli.run(config)
        entry = report["results"][0]["checks"]["mobius"]
        assert entry == {"status": "skip", "reason": "not a zero-one permutation"}

    def test_mobius_scans_each_perm_once(self, monkeypatch):
        real = perms.is_zero_one
        scanned = []

        def counting(w):
            scanned.append(w)
            return real(w)

        monkeypatch.setattr(perms, "is_zero_one", counting)
        report, status = cli.run(cli.RunConfig(n=5, checks=("mobius",)))
        assert status == 0
        assert sorted(scanned) == perms.all_perms(5)
        summary = report["summary"]
        zero_one = sum(map(real, perms.all_perms(5)))
        assert (summary["pass"], summary["skip"]) == (zero_one, 120 - zero_one)

    def test_not_applicable_is_a_skip(self, monkeypatch, capsys):
        real = posets.check_conjecture_2

        def partial(w, g):
            if w == (1, 3, 2):
                return NotApplicable("outside the statement")
            return real(w, g)

        monkeypatch.setattr(posets, "check_conjecture_2", partial)
        assert cli.main(["--n", "3", "--checks", "conj1,conj2"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["results"][1]["checks"]["conj2"] == {
            "status": "skip",
            "reason": "outside the statement",
        }
        summary = report["summary"]
        assert (summary["pass"], summary["skip"]) == (11, 1) and summary["all_pass"]
        assert "error" not in summary and err == ""

    @pytest.mark.parametrize(
        "n, expected",
        [
            (5, "ec5b14b0779709c7dbf871d464833cbaafd2c88028a64dcf29db2de2a490383a"),
            (6, json.loads(DIGESTS.read_text())["sweep-n6-all"]),
            # RESULTS.md's `grothverify --n 7 --jobs 2`: the bytes do not
            # depend on the number of jobs.
            pytest.param(
                7,
                "690051176400073678ef95cb7f7da046f69cb162e480022bd6d9edc9de896f01",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_default_report_bytes(self, n, expected):
        report, status = cli.run(cli.RunConfig(n=n))
        assert status == 0
        assert hashlib.sha256(cli.render(report, "json").encode()).hexdigest() == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_default_text_bytes(self, monkeypatch, jobs):
        """`--n 5 --format text`, pinned beside the JSON reports above, with
        one job or two."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        report, status = cli.run(cli.RunConfig(n=5, jobs=jobs))
        assert status == 0
        text = cli.render(report, "text").encode()
        assert hashlib.sha256(text).hexdigest() == (
            "1fe3e934a7ea990143b209de38c8a6ef095a36448c2aa4c86be7890936a17a64"
        )

    def test_json_render_is_json_dumps(self, monkeypatch, capsys):
        """Every kind of entry renders to the bytes of json.dumps, across
        several blocks of encoder chunks: the 𝔊_w outside the staircase box gives error
        entries (so `summary.error` and `summary.errors`) and fails with a
        dict witness (oracle); a term x_2 added to 𝔊_21345 = x_1 lies
        outside the spanning sumset, which fails with a tuple witness and a
        detail (superset); mobius skips with a reason; converse and
        superset carry boolean `info`; --timings adds floats."""
        _outside_box_g(monkeypatch, (1, 3, 2, 4, 5))
        _edit_g(monkeypatch, (2, 1, 3, 4, 5), lambda g: add(g, poly_of({(0, 1, 0, 0, 0): 1}, 5)))
        report, status = cli.run(cli.RunConfig(n=5, timings=True))
        capsys.readouterr()
        assert status == 3
        entries = [e for rec in report["results"] for e in rec["checks"].values()]
        assert {e["status"] for e in entries} == {"pass", "fail", "skip", "error"}
        assert any(
            e["status"] == "fail" and isinstance(e["witness"], list) and "detail" in e
            for e in entries
        )
        assert any(e["status"] == "skip" and e["reason"] for e in entries)
        assert any(True in e.get("info", {}).values() for e in entries)
        assert {"error", "errors", "wall_seconds"} <= report["summary"].keys()
        assert cli.render(report, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=4),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                lambda inner: st.lists(inner, max_size=3)
                | st.tuples(inner, inner)
                | st.dictionaries(st.text(max_size=4), inner, max_size=3)
                | st.dictionaries(st.integers(), inner, max_size=2),
                max_leaves=12,
            ),
            max_size=4,
        )
    )
    def test_json_render_of_any_nesting(self, report):
        # Empty containers, nesting at every depth, escapes, non-ASCII
        # text, integer keys, booleans beside integers, and floats with NaN
        # and infinity.
        assert cli.render(report, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_json_render_peak_memory(self):
        """Rendering holds the blocks and the result, not every encoder
        chunk at once: the traced peak stays below 3x the output."""
        report, _ = cli.run(cli.RunConfig(n=5))
        tracemalloc.start()
        try:
            text = cli.render(report, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_task_result_pickles_each_shared_outcome_once(self):
        """A subtree task of S_5 pickled as a worker returns it: one object
        per distinct entry and per distinct check table, where the records
        outnumber both."""
        config = cli.RunConfig(n=5)
        config.validate()
        (_, root), *_ = poly.first_ascent_children(perms.longest_element(5))
        pairs = pickle.loads(pickle.dumps(cli._sweep((config, root, True))))
        tables = [record["checks"] for _, record in pairs]
        entries = [entry for table in tables for entry in table.values()]
        for objects in (tables, entries):
            distinct = {json.dumps(o, sort_keys=True) for o in objects}
            assert len({id(o) for o in objects}) == len(distinct) < len(pairs)

    def test_entries_and_tables_are_read_only(self):
        """Mutating a shared entry, a dict inside one, or a check table
        raises TypeError and changes nothing; a deep copy and a pickle round
        trip give an equal object of the same type."""
        report, _ = cli.run(cli.RunConfig(n=4))
        table = report["results"][5]["checks"]
        entry, info = table["converse"], table["converse"]["info"]
        mutators = [
            lambda d: d.__setitem__("status", "fail"),
            lambda d: d.__delitem__(next(iter(d))),
            lambda d: d.clear(),
            lambda d: d.pop(next(iter(d))),
            lambda d: d.popitem(),
            lambda d: d.setdefault("extra", 1),
            lambda d: d.update(extra=1),
            lambda d: operator.ior(d, {"extra": 1}),
        ]
        for obj in (table, entry, info):
            before = dict(obj)
            for mutate in mutators:
                with pytest.raises(TypeError):
                    mutate(obj)
            assert obj == before
            for again in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert again == obj and type(again) is type(obj)

    def test_shared_verdicts_are_read_only(self):
        """Each outcome without a witness is one module-level constant:
        neither it nor its info can be changed, and it builds its one entry,
        whose own dicts cannot be changed either."""
        constants = [
            PASS,
            posets.NOT_ZERO_ONE,
            polytopes._SUPERSET[False],
            polytopes._SUPERSET[True],
            polytopes._CONVERSE[False],
            polytopes._CONVERSE[True],
        ]
        for v in constants:
            with pytest.raises(TypeError):
                v.info["extra"] = 1
            with pytest.raises(TypeError):
                v.info.update(extra=1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                v.ok = False
            assert v.entry is v.entry
            for obj in (v.entry, v.entry.get("info", verdicts.Frozen())):
                with pytest.raises(TypeError):
                    obj["extra"] = 1
                with pytest.raises(TypeError):
                    obj.update(extra=1)
        assert dict(polytopes._CONVERSE[True].info) == {"degree_saturated": True, "sumset_equality": True}
        assert polytopes._CONVERSE[True].entry["info"] == polytopes._CONVERSE[True].info
        assert posets.NOT_ZERO_ONE.entry == {"status": "skip", "reason": "not a zero-one permutation"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fresh_outcomes_keep_their_own_info(self, monkeypatch, jobs):
        """A checker that returns a fresh witness-free verdict each call, its
        info changing per call, gets each info in its own record, in a
        second run too, after the first run's entries were collected: no
        shared check table is mistaken for another by a reused id."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        config = cli.RunConfig(n=4, checks=("conj1", "euler"), jobs=jobs)
        for run in range(2):
            monkeypatch.setattr(
                posets, "check_conjecture_1", lambda w, g: Verdict(True, info={"w": list(w), "run": run})
            )
            report, status = cli.run(config)
            assert status == 0
            infos = [record["checks"]["conj1"]["info"] for record in report["results"]]
            assert infos == [{"w": list(w), "run": run} for w in perms.all_perms(4)]
            del report, infos
            gc.collect()

    def test_passing_sweep_constructs_no_verdict(self, monkeypatch):
        """A sweep where every check passes or skips returns the shared
        verdicts alone: no check constructs one."""
        made = []
        real = Verdict.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Verdict, "__init__", counting)
        report, status = cli.run(cli.RunConfig(n=5))
        assert status == 0 and report["summary"]["skip"] > 0
        assert made == []
        Verdict(False, witness=1)
        assert len(made) == 1

    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("timings", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_render_of_shared_outcomes(self, monkeypatch, capsys, jobs, timings, broken):
        """A report of shared entries and tables renders as its plain JSON
        copy does, and without the json.dumps fallback: every value in it is
        one the renderer knows.  With a failing and a raising checker
        patched in, the two failing records keep their own witness
        entries."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        failing = {(1, 3, 2, 4): "one", (2, 1, 4, 3): "two"}
        if broken:
            real_2, real_3 = posets.check_conjecture_2, posets.check_conjecture_3

            def fails(w, g):
                return Verdict(False, witness=[failing[w], w]) if w in failing else real_2(w, g)

            def raises(w, g):
                if w == (4, 3, 2, 1):
                    raise RuntimeError("boom")
                return real_3(w, g)

            monkeypatch.setattr(posets, "check_conjecture_2", fails)
            monkeypatch.setattr(posets, "check_conjecture_3", raises)
        report, status = cli.run(cli.RunConfig(n=4, jobs=jobs, timings=timings))
        capsys.readouterr()
        assert status == (3 if broken else 0)
        plain = json.loads(json.dumps(report))

        def no_fallback(*args, **kwargs):
            raise AssertionError("json.dumps fallback")

        monkeypatch.setattr(cli.json, "dumps", no_fallback)
        assert cli.render(report, "json") == cli.render(plain, "json")
        if broken:
            records = {r["perm"]: r["checks"] for r in report["results"]}
            one, two = (records[perms.format_perm(w)]["conj2"] for w in failing)
            assert one["witness"] == ["one", [1, 3, 2, 4]] and two["witness"] == ["two", [2, 1, 4, 3]]
            assert records["4,3,2,1"]["conj3"] == {"status": "error", "witness": "RuntimeError: boom"}

    @pytest.mark.parametrize(
        "info, rendered",
        [
            ({"x": [1, 2]}, '{"x": [1, 2]}'),
            # True == 1 == 1.0, but each renders its own way.
            ({"x": True}, '{"x": true}'),
            ({"x": 1}, '{"x": 1}'),
            ({"x": 1.0}, '{"x": 1.0}'),
        ],
    )
    def test_info_is_reported_as_given(self, monkeypatch, info, rendered):
        """A passing verdict's info reaches the report as the checker gave
        it, hashable or not, and shared or not."""
        monkeypatch.setattr(posets, "check_conjecture_1", lambda w, g: Verdict(True, info=info))
        report, status = cli.run(cli.RunConfig(n=3, checks=("conj1",)))
        assert status == 0
        for record in report["results"]:
            entry = record["checks"]["conj1"]
            assert entry == {"status": "pass", "info": info}
            assert json.dumps(entry["info"]) == rendered

    def test_poset_checks_share_one_view(self, monkeypatch):
        """Every check that reads a support reads the one view of 𝔊_w:
        one build per permutation, whichever of them run."""
        built = []
        real = poly._SupportView

        def counting(codes, n):
            built.append(n)
            return real(codes, n)

        monkeypatch.setattr(poly, "_SupportView", counting)
        battery = ("conj1", "conj2", "conj3", "coeff", "rajchgot")
        for checks in (battery, ("superset", "fms", "converse"), cli.ALL_CHECKS):
            built.clear()
            report, status = cli.run(cli.RunConfig(n=5, checks=checks))
            assert status == 0 and report["summary"]["fail"] == 0
            assert len(built) == 120, checks
        assert report["summary"]["pass"] + report["summary"]["skip"] == 12 * 120

    def test_one_build_per_permutation(self, monkeypatch, sumset_builds):
        """An all-checks sweep of S_5 builds each fact that several readers
        of one w share once per w: the support view, the Rothe diagram, its
        closure and the spanning sumset."""
        builds = {"view": 0, "rothe": 0, "closure": 0}

        def counting(key, module, name):
            real = getattr(module, name)

            def count(*args):
                builds[key] += 1
                return real(*args)

            monkeypatch.setattr(module, name, count)

        # The leaf each memoized fact calls once per build.
        counting("view", poly, "_SupportView")
        counting("rothe", perms, "inverse")
        counting("closure", perms, "upper_closure")
        report, status = cli.run(cli.RunConfig(n=5))
        assert status == 0 and report["summary"]["fail"] == 0
        assert builds == dict.fromkeys(builds, 120)
        assert sorted(sumset_builds) == perms.all_perms(5)

    def test_outside_staircase_is_an_error(self, monkeypatch):
        _outside_box_g(monkeypatch, (1, 3, 2))
        checks = (
            "conj1", "conj2", "conj3", "conj4", "coeff", "mobius", "rajchgot", "superset", "fms",
            "converse",
        )
        report, status = cli.run(cli.RunConfig(n=3, checks=checks))
        assert status == 3
        summary = report["summary"]
        assert (summary["fail"], summary["error"]) == (0, 10)
        entries = report["results"][1]["checks"]
        assert all(
            e["status"] == "error"
            and e["witness"] == "ValueError: (3, 0, 0) lies outside the staircase box of S_3"
            for e in entries.values()
        )

    def test_workers_capped_by_targets(self, monkeypatch):
        """No more workers than tasks: a --perm run is one task, and a full
        sweep of S_n is n of them, w_0 alone and the subtree below each of
        its n - 1 children.  This process is one of the workers, so k
        workers fork k - 1 children."""
        forked = _counting_forks(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)))
        report, _ = cli.run(cli.RunConfig(n=3, perm=(1, 3, 2), checks=("conj1",), jobs=8))
        assert forked == [] and len(report["results"]) == 1
        report, _ = cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert len(forked) == 2 and len(report["results"]) == 6
        # No more workers than the CPUs the process may run on, and the
        # same report bytes.
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3})
        capped, _ = cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert len(forked) == 3 and cli.render(capped, "json") == cli.render(report, "json")
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5})
        cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert len(forked) == 3
        _assert_no_children()

    def test_two_jobs_keep_the_n6_bytes(self, monkeypatch):
        """Two workers split S_6 into its six tasks and give the report of
        one process, byte for byte."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        one, two = (cli.render(cli.run(cli.RunConfig(n=6, jobs=jobs))[0], "json") for jobs in (1, 2))
        assert one == two
        _assert_no_children()

    def test_no_table_and_no_pipe_dreams(self, monkeypatch, capsys):
        """Verify and print runs neither load a table nor build pipe dreams:
        a full sweep with one job or two, a --perm run and --mode print all
        pass with both refused."""

        def refused(*args):
            raise AssertionError("a table of S_n was built or loaded")

        monkeypatch.setattr(cache, "load_or_build", refused)
        monkeypatch.setattr(pipedreams, "pd_polynomial_all", refused)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        for argv in [
            ["--n", "5"],
            ["--n", "5", "--jobs", "2"],
            ["--perm", "15324"],
            ["--perm", "15324", "--mode", "print"],
        ]:
            assert cli.main(argv) == 0, argv

    def test_determinism_across_jobs(self):
        config1 = cli.RunConfig(n=4, jobs=1)
        config4 = cli.RunConfig(n=4, jobs=4)
        out1 = cli.render(cli.run(config1)[0], "json")
        out4 = cli.render(cli.run(config4)[0], "json")
        assert out1 == out4

    def test_determinism_across_cache(self, tmp_path):
        cold = cli.render(cli.run(cli.RunConfig(n=4, cache_dir=str(tmp_path)))[0], "json")
        warm = cli.render(cli.run(cli.RunConfig(n=4, cache_dir=str(tmp_path)))[0], "json")
        plain = cli.render(cli.run(cli.RunConfig(n=4))[0], "json")
        assert cold == warm == plain

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cli.RunConfig(n=1).validate()
        with pytest.raises(ValueError):
            cli.RunConfig(n=4, checks=("nope",)).validate()
        with pytest.raises(ValueError):
            cli.RunConfig(n=4, jobs=0).validate()
        with pytest.raises(ValueError):
            cli.RunConfig(n=4, perm=(1, 2, 3)).validate()

    @pytest.mark.parametrize("perm", [(1, 1, 2), (1, 2, 4)], ids=["repeated", "out-of-range"])
    def test_perm_not_a_permutation_rejected(self, perm):
        with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
            cli.run(cli.RunConfig(n=3, perm=perm))

    def test_repeated_check_rejected(self, capsys):
        with pytest.raises(ValueError, match=r"repeated checks: \['conj1'\]"):
            cli.RunConfig(n=3, checks=("conj1", "conj2", "conj1")).validate()
        assert cli.main(["--n", "3", "--checks", "conj1,conj1", "--format", "text"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "repeated checks: ['conj1']" in err

    def test_max_n_env_override(self, monkeypatch):
        monkeypatch.setenv("GROTH_MAX_N", "9")
        cli.RunConfig(n=9, checks=("rajchgot",)).validate()
        monkeypatch.delenv("GROTH_MAX_N")
        with pytest.raises(ValueError):
            cli.RunConfig(n=9).validate()


class TestMain:
    def test_verify_exit_zero(self, capsys):
        assert cli.main(["--n", "3", "--checks", "conj1,oracle"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["summary"]["all_pass"]

    def test_usage_error_exit_two(self, capsys):
        assert cli.main(["--n", "99"]) == 2
        assert cli.main(["--n", "4", "--checks", "bogus"]) == 2

    def _worker_dies(self, monkeypatch, capsys, marker, death) -> str:
        """Run `--n 4 --jobs 2` with a forked worker that calls death() in
        its first check once this process has a task of its own; return the
        last line of stderr, after checking the exit status, the traceback
        and that no child is left."""
        main_pid = os.getpid()

        def dies(w, g):
            if os.getpid() != main_pid:
                marker.touch()
                death()
            _wait_for(marker)
            return PASS

        monkeypatch.setitem(cli.CHECKS, "euler", dies)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli.main(["--n", "4", "--jobs", "2", "--checks", "euler"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" in err
        _assert_no_children()
        return err.splitlines()[-1]

    def test_aborted_run_exits_three(self, monkeypatch, capsys, tmp_path):
        """A worker that dies aborts the run: an internal error, never the
        status of a failed check, whose last line names the worker's exit
        status."""
        last = self._worker_dies(monkeypatch, capsys, tmp_path / "taken", lambda: os._exit(9))
        assert re.fullmatch(r"error: run aborted: WorkerError: worker \d+ exited with status 9", last)

    def test_killed_worker_exits_three(self, monkeypatch, capsys, tmp_path):
        """A worker killed by a signal aborts the run the same way, and the
        last line names the signal."""
        last = self._worker_dies(
            monkeypatch, capsys, tmp_path / "taken", lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
        assert re.fullmatch(r"error: run aborted: WorkerError: worker \d+ was killed by SIGKILL", last)

    def test_worker_exception_exits_three(self, monkeypatch, capsys, tmp_path):
        """An exception in a worker's task outside any checker aborts the
        run with status 3, and the worker's traceback reaches this
        process's stderr."""
        main_pid = os.getpid()
        marker = tmp_path / "taken"
        real = cli._sweep

        def sweep(task):
            if os.getpid() != main_pid:
                marker.touch()
                raise RuntimeError("boom in a worker")
            _wait_for(marker)
            return real(task)

        monkeypatch.setattr(cli, "_sweep", sweep)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli.main(["--n", "4", "--jobs", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        # The worker's own frame and line, then this process's traceback.
        assert 'raise RuntimeError("boom in a worker")' in err and "in sweep" in err
        assert err.index("boom in a worker") < err.index("direct cause")
        last = err.splitlines()[-1]
        assert re.fullmatch(r"error: run aborted: WorkerError: worker \d+: RuntimeError: boom in a worker", last)
        _assert_no_children()

    def test_exception_in_this_process_leaves_no_child(self, monkeypatch, capsys, tmp_path):
        """An exception in this process's own task kills and reaps every
        forked worker, also one still busy with its task, before the run
        aborts."""
        main_pid = os.getpid()
        marker = tmp_path / "taken"

        def sweep(task):
            if os.getpid() != main_pid:
                marker.touch()
                time.sleep(60)
            _wait_for(marker)
            raise RuntimeError("boom in this process")

        monkeypatch.setattr(cli, "_sweep", sweep)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        started = time.monotonic()
        assert cli.main(["--n", "4", "--jobs", "2"]) == 3
        assert time.monotonic() - started < 30
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: run aborted: RuntimeError: boom in this process"
        _assert_no_children()

    def test_bad_max_n_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("GROTH_MAX_N", "x")
        assert cli.main(["--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: GROTH_MAX_N must be an integer, not 'x'\n"

    def test_text_format(self, capsys):
        assert cli.main(["--n", "3", "--checks", "conj1", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("perm")
        assert "pass" in out

    def test_print_mode(self, capsys):
        assert cli.main(["--perm", "132", "--mode", "print"]) == 0
        out = capsys.readouterr().out
        assert "grothendieck 1:1,0,0;1:0,1,0;-1:1,1,0" in out

    def test_cache_mode(self, tmp_path, capsys):
        rc = cli.main(["--n", "3", "--mode", "cache", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert os.path.exists(cache.cache_path(str(tmp_path), 3, "G"))
        assert os.path.exists(cache.cache_path(str(tmp_path), 3, "S"))

    def test_cache_mode_requires_dir(self, capsys):
        assert cli.main(["--n", "3", "--mode", "cache"]) == 2

    # Only --mode cache reads the cache (`test_no_table_and_no_pipe_dreams`).
    @pytest.mark.parametrize("mode", ["cache"])
    def test_corrupt_cache_is_an_error(self, tmp_path, capsys, mode):
        path = cache.cache_path(str(tmp_path), 3, "G")
        line = "1,2,3|1:0,0,0\n"
        cases = [
            (2 * line, "3: corrupt cache line: repeated permutation '1,2,3'"),
            (
                "1,2,3|1:3,0,0\n",
                "2: corrupt cache line: (3, 0, 0) lies outside the staircase box of S_3",
            ),
        ]
        for body, message in cases:
            Path(path).write_text(f"{cache.HEADER_PREFIX} n=3 flavor=G\n" + body)
            assert cli.main(["--perm", "132", "--mode", mode, "--cache-dir", str(tmp_path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {path}:{message}\n"

    @pytest.mark.parametrize("mode", ["cache"])
    def test_unusable_cache_dir_is_an_error(self, tmp_path, capsys, mode):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache_dir = str(blocker / "sub")
        assert cli.main(["--perm", "132", "--mode", mode, "--cache-dir", cache_dir]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 20] Not a directory: {cache_dir!r}\n"

    def test_runs_without_cpu_affinity(self, monkeypatch, capsys):
        """`os.sched_getaffinity` exists only on Linux.  Without it one job
        keeps the report's bytes, as it asks for no CPU count, and more jobs
        are capped by `os.cpu_count`: two workers, one of them forked."""
        assert cli.main(["--n", "4"]) == 0
        expected = capsys.readouterr().out
        forked = _counting_forks(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.main(["--n", "4"]) == 0
        assert capsys.readouterr().out == expected and forked == []
        assert cli.main(["--n", "4", "--jobs", "8"]) == 0
        assert capsys.readouterr().out == expected and len(forked) == 1
        _assert_no_children()

    # Runs in a fresh interpreter, as pytest has imported every module
    # watched here.  It gives the run two CPUs, so that `--jobs 2` forks a
    # worker on any machine, and counts the forks of this process.
    CHILD = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from grothpoly import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
watched = ("multiprocessing", "concurrent.futures", "grothpoly.cache", "grothpoly.pipedreams")
print(json.dumps([status, [name for name in watched if name in sys.modules], len(forks)]))
"""

    @pytest.mark.parametrize(
        "argv, loaded, forks",
        [
            (["--n", "4"], [], 0),
            (["--perm", "2143"], [], 0),
            (["--perm", "2143", "--mode", "print"], [], 0),
            (["--mode", "cache", "--n", "3"], ["grothpoly.cache", "grothpoly.pipedreams"], 0),
            (["--n", "4", "--jobs", "2"], [], 1),
        ],
        ids=["verify", "perm", "print", "cache", "jobs2"],
    )
    def test_a_run_imports_what_it_uses(self, tmp_path, argv, loaded, forks):
        """A run imports `cache` and `pipedreams` only for `--mode cache`,
        and no run imports a process pool's modules: two jobs fork one
        worker, with neither `multiprocessing` nor `concurrent.futures`."""
        if "cache" in argv:
            argv = argv + ["--cache-dir", str(tmp_path)]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [0, loaded, forks]

    def test_print_mode_requires_perm(self, capsys):
        assert cli.main(["--n", "3", "--mode", "print"]) == 2
        assert capsys.readouterr().err == "error: --mode print requires --perm\n"

    def test_perm_length_must_match_n(self, capsys):
        assert cli.main(["--n", "6", "--perm", "132"]) == 2
        assert capsys.readouterr().err == "error: --perm length must match --n\n"

    def test_n_defaults_to_perm_length(self, capsys):
        assert cli.main(["--perm", "132"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["n"] == 3 and report["summary"]["permutations"] == 1

    @pytest.mark.parametrize(
        "perm, digest",
        [
            ("1247635", "2c7047af8cc6e32f5701b7a546e5ea2b641a405f2e129081b1fa85803381ace0"),
            # The largest P_w of S_7: 1 808 elements.
            ("1327654", "b824339c1b3083f6fa5f12fa65c94dbb280217660e2ac02ddb44ce14d7fe5710"),
        ],
        ids=["1247635", "1327654"],
    )
    def test_print_mode_n7_bytes(self, capsys, perm, digest):
        assert cli.main(["--mode", "print", "--perm", perm]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


class TestTableRecursionInvariant:
    def test_stored_values_satisfy_recursion(self, tables):
        for w in perms.all_perms(4):
            for j in perms.ascents(w):
                parent = perms.apply_s(w, j)
                assert (
                    divided_difference(tables[(4, "S")][parent], j)
                    == tables[(4, "S")][w]
                )
                assert (
                    poly.isobaric_divided_difference(tables[(4, "G")][parent], j)
                    == tables[(4, "G")][w]
                )
