import hashlib
import json
import os
from pathlib import Path

import pytest

from grothpoly import cache, cli, perms, pipedreams, poly, posets
from grothpoly.verdicts import NotApplicable

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


class TestCache:
    # The keys of the `tables` fixture.
    @pytest.mark.parametrize("n, flavor", [(n, f) for n in (3, 4, 5, 6) for f in "SG"])
    def test_roundtrip_identity(self, tables, tmp_path, n, flavor):
        table = tables[(n, flavor)]
        reloaded = cache.cache_roundtrip(table, str(tmp_path))
        assert reloaded.polys == table.polys
        # Equal exponent vectors are one shared tuple in the reloaded table.
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

    @pytest.mark.slow
    def test_cache_roundtrip_S7_slow(self, tmp_path):
        for flavor in ("S", "G"):
            table = poly.build_table(7, flavor)
            reloaded = cache.cache_roundtrip(table, str(tmp_path))
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

    def test_empty_body_is_zero(self, tmp_path):
        path = str(tmp_path / "zero.txt")
        with open(path, "w") as fh:
            fh.write("grothcache v1 n=3 flavor=G\n1,2,3|\n")
        table = cache.read_table(path, 3, "G")
        assert table[(1, 2, 3)] == poly.Poly.zero(3)

    def test_warm_cache_skips_recompute(self, tmp_path):
        cache_dir = str(tmp_path)
        cache.load_or_build(cache_dir, 4, "G")
        before = poly.OPERATOR_APPLICATIONS
        cache.load_or_build(cache_dir, 4, "G")
        assert poly.OPERATOR_APPLICATIONS == before


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

    def test_oracle_sweep_n4(self):
        report, status = cli.run(cli.RunConfig(n=4, checks=("oracle",)))
        assert status == 0
        assert report["summary"]["pass"] == 24

    def test_oracle_failure_witness(self, monkeypatch):
        real = pipedreams.pd_polynomial_all

        def perturbed(n, mode):
            out = real(n, mode)
            if mode == "schubert":
                w = (1, 3, 2)
                out[w] = out[w] + poly.Poly.from_text("5:0,1,0;7:2,0,0", 3)
            return out

        monkeypatch.setattr(pipedreams, "pd_polynomial_all", perturbed)
        report, status = cli.run(cli.RunConfig(n=3, checks=("oracle",)))
        assert status == 1
        assert report["summary"]["failures"] == [{"perm": "1,3,2", "check": "oracle"}]
        entry = report["results"][1]["checks"]["oracle"]
        assert entry == {
            "status": "fail",
            "witness": {"flavor": "S", "exponent": [2, 0, 0], "table": 0, "pipe_dreams": 7},
        }

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
        ],
    )
    def test_default_report_bytes(self, n, expected):
        report, status = cli.run(cli.RunConfig(n=n))
        assert status == 0
        assert hashlib.sha256(cli.render(report, "json").encode()).hexdigest() == expected

    def test_poset_checks_share_one_view(self, monkeypatch):
        built = []
        real = posets._SupportView

        def counting(vectors, n):
            built.append(n)
            return real(vectors, n)

        monkeypatch.setattr(posets, "_SupportView", counting)
        report, status = cli.run(cli.RunConfig(n=5, checks=("conj1", "conj2", "conj3", "coeff")))
        assert status == 0 and report["summary"]["pass"] == 4 * 120
        assert len(built) == 120

    def test_degree_limit_is_an_error(self, monkeypatch):
        real = cache.load_or_build

        def load(cache_dir, n, flavor):
            table = real(cache_dir, n, flavor)
            if flavor == "G":
                table.polys[(1, 3, 2)] = poly.Poly({(127, 0, 0): 1}, 3)
            return table

        monkeypatch.setattr(cache, "load_or_build", load)
        checks = ("conj1", "conj2", "conj3", "coeff")
        report, status = cli.run(cli.RunConfig(n=3, checks=checks))
        assert status == 3
        summary = report["summary"]
        assert (summary["fail"], summary["error"]) == (0, 4)
        entries = report["results"][1]["checks"]
        assert all(
            e["status"] == "error" and e["witness"].startswith("ValueError: degree 127")
            for e in entries.values()
        )

    def test_workers_capped_by_targets(self, monkeypatch):
        requested = []

        class Recorder:
            def __init__(self, max_workers, mp_context):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Recorder)
        report, _ = cli.run(cli.RunConfig(n=3, perm=(1, 3, 2), checks=("conj1",), jobs=8))
        assert requested == [] and len(report["results"]) == 1
        report, _ = cli.run(cli.RunConfig(n=3, checks=("conj1",), jobs=8))
        assert requested == [6] and len(report["results"]) == 6

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


class TestTableRecursionInvariant:
    def test_stored_values_satisfy_recursion(self, tables):
        from grothpoly.poly import divided_difference, isobaric_divided_difference

        for w in perms.all_perms(4):
            for j in perms.ascents(w):
                parent = perms.apply_s(w, j)
                assert (
                    divided_difference(tables[(4, "S")][parent], j)
                    == tables[(4, "S")][w]
                )
                assert (
                    isobaric_divided_difference(tables[(4, "G")][parent], j)
                    == tables[(4, "G")][w]
                )
