import gc
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import pytest

from grothpoly import cache, cli, perms, pipedreams, poly, posets, polytopes
from grothpoly.verdicts import NotApplicable, Verdict
from reference import add, divided_difference, poly_of

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _roundtrip(table, cache_dir):
    """Write the table to the cache and return the copy read back."""
    path = cache.cache_path(str(cache_dir), table.n, table.flavor)
    cache.write_table(table, path)
    return cache.read_table(path, table.n, table.flavor)


def _edit_g(monkeypatch, w, edit):
    """Load 𝔊 tables in which 𝔊_w is edit(𝔊_w), as if the pipe dreams had
    built it."""
    real = cache.load_or_build

    def load(cache_dir, n, flavor):
        table = real(cache_dir, n, flavor)
        if flavor == "G":
            table.polys[w] = edit(table[w])
        return table

    monkeypatch.setattr(cache, "load_or_build", load)


def _outside_box_g(monkeypatch, w):
    """Load 𝔊 tables in which 𝔊_w is x_1^n, one past the staircase box of
    S_n: it has a code (`poly.code`), and the packed support view refuses
    it."""

    def x1_to_the_n(g):
        return poly.Poly({poly.code((g.nvars,) + (0,) * (g.nvars - 1)): 1}, g.nvars)

    _edit_g(monkeypatch, w, x1_to_the_n)


def _first_ascent_chain(w):
    """w and each first-ascent parent w.s_j above it, up to w_0."""
    chain = [w]
    while ascents := perms.ascents(chain[-1]):
        chain.append(perms.apply_s(chain[-1], ascents[0]))
    return chain


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

    def test_empty_body_is_zero(self, tmp_path):
        path = str(tmp_path / "zero.txt")
        with open(path, "w") as fh:
            fh.write("grothcache v1 n=3 flavor=G\n1,2,3|\n")
        table = cache.read_table(path, 3, "G")
        assert table[(1, 2, 3)] == poly.Poly({}, 3)

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
        # The pipe-dream 𝔊_132 gains 5 x_2 + 7 x_1^2.  The step that fails is
        # 𝔊_132 = π_1 𝔊_312, and x_1^2 comes before x_2 in term order.
        extra = poly.parse_text("5:0,1,0;7:2,0,0", 3, {})
        _edit_g(monkeypatch, (1, 3, 2), lambda g: add(g, extra))
        witness = {
            "perm": "1,3,2",
            "parent": "3,1,2",
            "j": 1,
            "exponent": [2, 0, 0],
            "divided_differences": 0,
            "pipe_dreams": 7,
        }
        report, status = cli.run(cli.RunConfig(n=3, checks=("oracle",)))
        assert status == 1
        assert report["summary"]["failures"] == [{"perm": "1,3,2", "check": "oracle"}]
        assert report["results"][1]["checks"]["oracle"] == {"status": "fail", "witness": witness}
        # 3,1,2 is checked against 𝔊_321 only, so it passes; --perm 1,2,3
        # walks 1,2,3 -> 2,1,3 -> 2,3,1 -> 3,2,1, off the perturbed entry.
        assert cli.run(cli.RunConfig(n=3, perm=(3, 1, 2), checks=("oracle",)))[1] == 0
        assert cli.run(cli.RunConfig(n=3, perm=(1, 2, 3), checks=("oracle",)))[1] == 0

    def test_oracle_failure_witness_at_w0(self, monkeypatch):
        # At w_0 the table is compared with the staircase monomial; the
        # step has no parent and no j.
        _edit_g(monkeypatch, (3, 2, 1), lambda g: poly_of({(2, 1, 0): 1, (3, 0, 0): -2}, 3))
        report, status = cli.run(cli.RunConfig(n=3, perm=(3, 2, 1), checks=("oracle",)))
        assert status == 1
        assert report["results"][0]["checks"]["oracle"]["witness"] == {
            "perm": "3,2,1",
            "parent": None,
            "j": None,
            "exponent": [3, 0, 0],
            "divided_differences": 0,
            "pipe_dreams": -2,
        }

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_wrong_pipe_dream_polynomial_is_caught(self, monkeypatch, n):
        """One term x_1^n (never a term of a 𝔊_w of S_n) added to the
        pipe-dream 𝔊_u, for each u: the full sweep fails at u, with the
        same report for one and two jobs, and --perm w fails exactly when u
        is on w's first-ascent chain to w_0."""
        extra = poly_of({(n,) + (0,) * (n - 1): 1}, n)
        chains = {w: _first_ascent_chain(w) for w in perms.all_perms(n)}
        for u in perms.all_perms(n):
            with monkeypatch.context() as m:
                _edit_g(m, u, lambda g: add(g, extra))
                reports = []
                for jobs in (1, 2):
                    report, status = cli.run(cli.RunConfig(n=n, checks=("oracle",), jobs=jobs))
                    assert status == 1
                    reports.append(cli.render(report, "json"))
                assert reports[0] == reports[1]
                failed = [f["perm"] for f in report["summary"]["failures"]]
                assert perms.format_perm(u) in failed, u
                for w, chain in chains.items():
                    _, status = cli.run(cli.RunConfig(n=n, perm=w, checks=("oracle",)))
                    assert status == (1 if u in chain else 0), (u, w)

    def test_operator_calls(self, monkeypatch, tmp_path, capsys):
        """The divided differences run only for the oracle: once per
        permutation but w_0 in a full sweep, and once per step of the walk
        to w_0 in a --perm run, at most n(n-1)/2.  No run builds the
        divided-difference table."""

        def refused(n, flavor):
            raise AssertionError("cli.run built the divided-difference table")

        monkeypatch.setattr(poly, "build_table", refused)
        for without_oracle in [
            lambda: cli.run(cli.RunConfig(n=4, checks=("euler", "conj1"))),
            lambda: cli.main(["--mode", "print", "--perm", "1432"]),
            lambda: cli.main(["--n", "4", "--mode", "cache", "--cache-dir", str(tmp_path)]),
        ]:
            assert _operator_calls(without_oracle)[1] == 0
        for n in (4, 5):
            (_, status), count = _operator_calls(lambda: cli.run(cli.RunConfig(n=n, checks=("oracle",))))
            assert status == 0 and count == len(perms.all_perms(n)) - 1
        # The walk from w has l(w_0) - l(w) steps: n(n-1)/2 = 15 at the identity.
        for w in [(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1), (2, 1, 4, 3, 6, 5), (1, 3, 2, 6, 5, 4)]:
            config = cli.RunConfig(n=6, perm=w, checks=("oracle",))
            (_, status), count = _operator_calls(lambda: cli.run(config))
            assert status == 0 and count == 15 - perms.length(w)

    def test_schubert_table_loaded_only_when_read(self, monkeypatch, tmp_path, capsys):
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
            _, status = cli.run(cli.RunConfig(n=4, checks=checks))
            assert status == 0 and loaded == ["G"], checks
        loaded.clear()
        assert cli.main(["--mode", "print", "--perm", "1432"]) == 0
        assert loaded == ["G"]
        loaded.clear()
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

    def test_one_build_per_permutation(self, monkeypatch):
        """An all-checks sweep of S_5 builds each fact that several readers
        of one w share once per w: the support view, the Rothe diagram, its
        closure and the spanning sumset."""
        builds = {"view": 0, "rothe": 0, "closure": 0, "sumset": 0}

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
        counting("sumset", polytopes, "_rothe_columns")
        report, status = cli.run(cli.RunConfig(n=5))
        assert status == 0 and report["summary"]["fail"] == 0
        assert builds == dict.fromkeys(builds, 120)

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
        requested = []

        class Recorder:
            def __init__(self, max_workers, mp_context, initializer):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)))
        report, _ = cli.run(cli.RunConfig(n=3, perm=(1, 3, 2), checks=("conj1",), jobs=8))
        assert requested == [] and len(report["results"]) == 1
        report, _ = cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert requested == [6] and len(report["results"]) == 6
        # No more workers than the CPUs the process may run on, and the
        # same report bytes.
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3})
        capped, _ = cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert requested == [6, 2] and cli.render(capped, "json") == cli.render(report, "json")
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5})
        cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert requested == [6, 2]

    def test_workers_freeze_what_they_inherit(self, monkeypatch):
        """Each forked worker freezes the objects it inherits, so its
        collections skip the table; the driver freezes nothing."""

        def frozen(w, g):
            return Verdict(True, info={"frozen": gc.get_freeze_count()})

        monkeypatch.setitem(cli.CHECKS, "euler", frozen)
        report, status = cli.run(cli.RunConfig(n=4, checks=("euler",), jobs=2))
        assert status == 0 and gc.get_freeze_count() == 0
        assert all(r["checks"]["euler"]["info"]["frozen"] > 0 for r in report["results"])

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

    def test_aborted_run_exits_three(self, monkeypatch, capsys):
        # A worker that dies breaks the pool and aborts the run: an internal
        # error, never the status of a failed check.
        main_pid = os.getpid()

        def dies(w, g):
            if os.getpid() != main_pid:
                os._exit(9)
            return Verdict(True)

        monkeypatch.setitem(cli.CHECKS, "euler", dies)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli.main(["--n", "4", "--jobs", "2", "--checks", "euler"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" in err
        assert err.splitlines()[-1].startswith("error: run aborted: BrokenProcessPool: ")

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

    @pytest.mark.parametrize("mode", ["verify", "print", "cache"])
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

    @pytest.mark.parametrize("mode", ["verify", "print", "cache"])
    def test_unusable_cache_dir_is_an_error(self, tmp_path, capsys, mode):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache_dir = str(blocker / "sub")
        assert cli.main(["--perm", "132", "--mode", mode, "--cache-dir", cache_dir]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 20] Not a directory: {cache_dir!r}\n"

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
