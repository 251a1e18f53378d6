"""
Batch verification driver.

Builds (or loads from cache) the Grothendieck table for S_n, and the
divided-difference one when the oracle runs, fans the requested checks
across worker processes, and emits a deterministic machine-readable report.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import cache, perms, poly, posets, polytopes
from .verdicts import NotApplicable, Verdict

ENGINE = "grothpoly 0.1.0"


def _oracle(w, g) -> Verdict:
    """The pipe-dream 𝔊_w must equal the divided-difference one (the
    reference table in `_CTX`); a failure names the first differing exponent
    in term order and both coefficients."""
    pd_c, dd_c = g.terms, _CTX[2][w].terms
    if pd_c == dd_c:
        return Verdict(True)
    differ = (e for e in pd_c.keys() | dd_c.keys() if pd_c.get(e, 0) != dd_c.get(e, 0))
    expo = min(differ, key=poly.term_key)
    dd, pd = dd_c.get(expo, 0), pd_c.get(expo, 0)
    return Verdict(False, witness={"exponent": expo, "divided_differences": dd, "pipe_dreams": pd})


def _euler(w, g) -> Verdict:
    total = g.principal_specialization()
    return Verdict(True) if total == 1 else Verdict(False, witness=total)


# Each check maps (w, G_w) to a Verdict, NotApplicable when its statement
# does not cover w.
# The checkers are looked up on their modules at call time, so a wrapper
# installed on a module attribute sees every call.
CHECKS = {
    "conj1": lambda w, g: posets.check_conjecture_1(w, g),
    "conj2": lambda w, g: posets.check_conjecture_2(w, g),
    "conj3": lambda w, g: posets.check_conjecture_3(w, g),
    "conj4": lambda w, g: polytopes.check_conjecture_4(w, g),
    "coeff": lambda w, g: posets.check_conjecture_coeff(w, g),
    "mobius": lambda w, g: posets.check_conjecture_mobius(w, g),
    "superset": lambda w, g: polytopes.check_superset(w, g),
    "fms": lambda w, g: polytopes.check_fms(w, g),
    "converse": lambda w, g: polytopes.check_prop_converse(w, g),
    "oracle": _oracle,
    "euler": _euler,
    "rajchgot": lambda w, g: posets.check_rajchgot(w, g),
}

ALL_CHECKS = tuple(CHECKS)

DEFAULT_MAX_N = 8


@dataclass
class RunConfig:
    n: int = 5
    checks: Tuple[str, ...] = ALL_CHECKS
    jobs: int = 1
    cache_dir: Optional[str] = None
    perm: Optional[tuple] = None
    timings: bool = False

    def validate(self) -> None:
        max_n = int(os.environ.get("GROTH_MAX_N", DEFAULT_MAX_N))
        if not 2 <= self.n <= max_n:
            raise ValueError(f"n={self.n} outside the supported range 2..{max_n}")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        repeated = {name for name in self.checks if self.checks.count(name) > 1}
        if repeated:
            raise ValueError(f"repeated checks: {sorted(repeated)}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.perm is not None:
            self.perm = perms.check_perm(self.perm)
            if len(self.perm) != self.n:
                raise ValueError("--perm length must match --n")


# Shared read-only state for fork-based workers: (config, G table, the
# divided-difference G table or None).
_CTX = None


def _from_verdict(v: Verdict) -> dict:
    if isinstance(v, NotApplicable):
        return {"status": "skip", "reason": v.detail}
    out = {"status": "pass" if v.ok else "fail"}
    if v.witness is not None:
        out["witness"] = _jsonable(v.witness)
    if v.detail:
        out["detail"] = v.detail
    if v.info:
        out["info"] = _jsonable(v.info)
    return out


def _jsonable(obj):
    if isinstance(obj, (tuple, list, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(x) for x in items]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _run_check(name: str, w, g) -> dict:
    """One report entry, from the check's Verdict.  An exception inside a
    checker is an internal error, not a verdict on the conjecture: the entry
    gets status `error` with the exception as its witness, the traceback
    goes to stderr, and the sweep goes on."""
    try:
        return _from_verdict(CHECKS[name](w, g))
    except Exception as exc:
        print(f"error: check {name} on {perms.format_perm(w)}:", file=sys.stderr)
        traceback.print_exc()
        return {"status": "error", "witness": f"{type(exc).__name__}: {exc}"}


def _check_one(w: tuple) -> dict:
    config, table_g, _ = _CTX
    started = time.perf_counter()
    g = table_g[w]
    record = {
        "perm": perms.format_perm(w),
        "length": perms.length(w),
        "deg_g": g.degree(),
        "rajcode": list(perms.rajcode(w)),
        "checks": {name: _run_check(name, w, g) for name in config.checks},
    }
    if config.timings:
        record["seconds"] = round(time.perf_counter() - started, 6)
    return record


def run(config: RunConfig) -> Tuple[dict, int]:
    """Execute the configured batch; return (report, exit_status), where the
    status is 3 if any checker raised, else 1 if any check failed, else 0."""
    config.validate()
    started = time.perf_counter()
    table_g = cache.load_or_build(config.cache_dir, config.n, "G")
    ref = poly.build_table(config.n, "G") if "oracle" in config.checks else None

    targets = [config.perm] if config.perm else perms.all_perms(config.n)

    # The fork context starts every worker up front: no more than the targets.
    workers = min(config.jobs, len(targets))
    global _CTX
    _CTX = (config, table_g, ref)
    try:
        if workers == 1:
            results = [_check_one(w) for w in targets]
        else:
            mp = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=mp
            ) as pool:
                results = list(pool.map(_check_one, targets, chunksize=16))
    finally:
        _CTX = None

    counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
    listed = {"fail": [], "error": []}
    for rec in results:
        for name, entry in rec["checks"].items():
            counts[entry["status"]] += 1
            if entry["status"] in listed:
                listed[entry["status"]].append({"perm": rec["perm"], "check": name})
    summary = {
        "permutations": len(results),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "skip": counts["skip"],
        "all_pass": counts["fail"] == counts["error"] == 0,
        "failures": listed["fail"],
    }
    # Error keys appear only when an error occurred, so the report of a run
    # without errors keeps its exact bytes.
    if counts["error"]:
        summary["error"] = counts["error"]
        summary["errors"] = listed["error"]
    report = {
        "meta": {
            "engine": ENGINE,
            "n": config.n,
            "checks": list(config.checks),
            "perm": perms.format_perm(config.perm) if config.perm else None,
        },
        "summary": summary,
        "results": results,
    }
    if config.timings:
        report["summary"]["wall_seconds"] = round(time.perf_counter() - started, 6)
    return report, (3 if counts["error"] else 1 if counts["fail"] else 0)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    checks = report["meta"]["checks"]
    header = ["perm", "len", "deg"] + checks
    lines.append("  ".join(header))
    for rec in report["results"]:
        row = [rec["perm"], str(rec["length"]), str(rec["deg_g"])]
        for name in checks:
            entry = rec["checks"].get(name, {"status": "-"})
            row.append(entry["status"])
        lines.append("  ".join(row))
    s = report["summary"]
    totals = (
        f"permutations={s['permutations']} pass={s['pass']} "
        f"fail={s['fail']} skip={s['skip']}"
    )
    lines.append(totals + (f" error={s['error']}" if "error" in s else ""))
    for failure in s["failures"]:
        lines.append(f"FAIL {failure['perm']} {failure['check']}")
    for error in s.get("errors", ()):
        lines.append(f"ERROR {error['perm']} {error['check']}")
    return "\n".join(lines) + "\n"


def print_permutation(config: RunConfig) -> str:
    """--mode print: dump the computed objects for `config.perm`; 𝔖_w is the
    degree-l(w) part of 𝔊_w."""
    w, length = config.perm, perms.length(config.perm)
    g = cache.load_or_build(config.cache_dir, config.n, "G")[w]
    s = poly.Poly({e: c for e, c in g.terms.items() if sum(e) == length}, config.n)
    lines = [
        f"perm {perms.format_perm(w)}",
        f"length {length}",
        f"rajcode {','.join(map(str, perms.rajcode(w)))}",
        f"schubert {s.to_text()}",
        f"grothendieck {g.to_text()}",
        "support:",
        polytopes.lattice_set_text(g.support()),
        "poset covers:",
        posets.build_Pw(w, g).hasse_text(),
        "recovered pair (bitmask y z):",
        polytopes.recover_pair(g.support()).to_text(),
    ]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothverify",
        description="Exact batch verifier for Grothendieck/Schubert polynomial "
        "support structure over S_n.",
    )
    parser.add_argument(
        "--n", type=int, default=None, help="symmetric group size (default: the length of --perm, else 5)"
    )
    parser.add_argument("--perm", type=str, default=None, help="single permutation, one-line notation")
    parser.add_argument(
        "--checks",
        type=str,
        default="all",
        help="comma-separated subset of: " + ",".join(ALL_CHECKS) + " (or 'all')",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--cache-dir", type=str, default=None, help="polynomial cache directory")
    parser.add_argument("--format", type=str, default="json", choices=("json", "text"))
    parser.add_argument("--mode", type=str, default="verify", choices=("verify", "print", "cache"))
    parser.add_argument("--timings", action="store_true", help="include timing fields in the report")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    checks = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    perm = perms.parse_perm(args.perm) if args.perm else None
    n = args.n
    if n is None:
        n = len(perm) if perm else RunConfig.n
    return RunConfig(
        n=n,
        checks=checks,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        perm=perm,
        timings=args.timings,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        config.validate()
    except (ValueError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            return 2 if exc.code else 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.mode == "print":
        if config.perm is None:
            print("error: --mode print requires --perm", file=sys.stderr)
            return 2
        sys.stdout.write(print_permutation(config))
        return 0
    if args.mode == "cache":
        if not config.cache_dir:
            print("error: --mode cache requires --cache-dir", file=sys.stderr)
            return 2
        cache.load_or_build(config.cache_dir, config.n, "G")
        cache.load_or_build(config.cache_dir, config.n, "S")
        return 0
    report, status = run(config)
    sys.stdout.write(render(report, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
