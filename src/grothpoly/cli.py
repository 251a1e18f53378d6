"""
Batch verification driver.

A verify run holds no table of S_n.  Its tasks are w_0 alone and the
subtree below each child of w_0 in the first-ascent tree; a `--perm` run
is one task, its w alone.  A task builds its root's 𝔊 by the chain from
w_0 (`poly.grothendieck`), walks its subtree (`poly.walk`), and checks
each 𝔊_w as it is made, then drops it.  With `--jobs 1` the tasks run in
this process.  With k > 1 workers, k - 1 children are forked and every
process, this one included, takes task indices from one pipe until it is
empty; each child sends its (w, record) pairs back as one pickle, and no
child outlives `run` (`_fork_join`).  The pairs are sorted into
`perms.all_perms` order.

A check's report entry is its verdict's (`verdicts.Verdict.entry`), and
`cli` reads only its status and whether it has a witness.  A passing
check returns a module-level constant and constructs nothing, so the
process has one entry of it; a record whose entries carry no witness
shares one check table per process with every record of the same
entries.  A report's entries and check tables are read-only, and
mutating one raises TypeError.  `--mode print` builds its one 𝔊_w by the
chain.

A run imports what its mode uses.  Verify and print runs import neither
`cache` nor `pipedreams`; `--mode cache` imports both, to build and write
its tables.  No run imports `concurrent.futures` or `multiprocessing`.
Only a verify run with two or more workers imports `pickle` and `signal`
and asks for the usable CPUs, so `--jobs 1` makes no CPU-affinity call.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter
from typing import List, Optional, Tuple

from . import perms, poly, posets, polytopes
from .verdicts import PASS, Frozen, Verdict, error_entry

ENGINE = "grothpoly 0.1.0"


def _oracle(w, g) -> Verdict:
    """The 0-Hecke identity π_k 𝔊_w = 𝔊_w for k the last ascent of w, which
    holds as π_k is idempotent and 𝔊_w = π_k 𝔊_{w.s_k}, and 𝔊_{w_0} = the
    staircase monomial.  The walk made 𝔊_w by π_j, j the first ascent, so
    k = j only where w has one ascent, and there the check is that π_j is
    idempotent on 𝔊_w.  One operator call per w != w_0.

    π_k fixes exactly what is symmetric in x_k and x_{k+1}, so the check
    misses an error that keeps 𝔊_w so.  The independent computation is in
    the tests: the walk against the pipe dreams over S_1 to S_7 (S_8 in the
    slow tier).  A failure names w, k (null at w_0), the first differing
    exponent in term order and both coefficients."""
    n = g.nvars
    ascents = perms.ascents(w)
    k = ascents[-1] if ascents else None
    expected = poly.isobaric_divided_difference(g, k) if ascents else poly.staircase_monomial(n)
    walked, wanted = g.terms, expected.terms
    if walked == wanted:
        return PASS
    differ = (e for e in walked.keys() | wanted.keys() if walked.get(e, 0) != wanted.get(e, 0))
    expo = min(differ, key=((1 << 8 * n) - 1).__and__)  # term order: the degree masked off
    witness = {
        "perm": perms.format_perm(w),
        "k": k,
        "exponent": poly.decode(expo, n),
        "expected": wanted.get(expo, 0),
        "walked": walked.get(expo, 0),
    }
    return Verdict(False, witness=witness)


def _euler(w, g) -> Verdict:
    total = g.principal_specialization()
    return PASS if total == 1 else Verdict(False, witness=total)


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
        raw = os.environ.get("GROTH_MAX_N", str(DEFAULT_MAX_N))
        try:
            max_n = int(raw)
        except ValueError:
            raise ValueError(f"GROTH_MAX_N must be an integer, not {raw!r}") from None
        if not 2 <= self.n <= max_n:
            raise ValueError(f"n={self.n} outside the supported range 2..{max_n}")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        repeated = {name for name in self.checks if self.checks.count(name) > 1}
        if repeated:
            raise ValueError(f"repeated checks: {sorted(repeated)}")
        self.checks = tuple(self.checks)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.perm is not None:
            self.perm = perms.check_perm(self.perm)
            if len(self.perm) != self.n:
                raise ValueError("--perm length must match --n")


def _run_check(name: str, w, g) -> dict:
    """One report entry, from the check's Verdict.  An exception inside a
    checker is an internal error, not a verdict on the conjecture: the entry
    gets status `error` with the exception as its witness, the traceback
    goes to stderr, and the sweep goes on."""
    try:
        return CHECKS[name](w, g).entry
    except Exception as exc:
        print(f"error: check {name} on {perms.format_perm(w)}:", file=sys.stderr)
        traceback.print_exc()
        return error_entry(exc)


def _check_one(config: RunConfig, w: tuple, g: poly.Poly) -> dict:
    started = time.perf_counter()
    entries = [_run_check(name, w, g) for name in config.checks]
    record = {
        "perm": perms.format_perm(w),
        "length": perms.length(w),
        "deg_g": g.degree(),
        "rajcode": list(perms.rajcode(w)),
        "checks": _table(config.checks, entries),
    }
    if config.timings:
        record["seconds"] = round(time.perf_counter() - started, 6)
    return record


# The check tables without a witness, by names and entry ids.  A table kept
# here keeps its entries alive, so no id in a key is ever reused.
_TABLES: dict = {}


def _table(names: tuple, entries: list) -> dict:
    """The read-only check table of one record: when no entry has a
    witness, the one table per process of these names and entries."""
    key = (names, tuple(map(id, entries)))
    table = _TABLES.get(key)
    if table is None:
        table = Frozen(zip(names, entries))
        if not any("witness" in entry for entry in entries):
            _TABLES[key] = table
    return table


def _sweep(task: tuple) -> list:
    """The (w, record) pairs of one task (config, root, whole): the root,
    its 𝔊 built by the chain, and with `whole` every w below it in the
    walk."""
    config, root, whole = task
    g = poly.grothendieck(root)
    pairs = poly.walk(root, g, poly.isobaric_divided_difference) if whole else [(root, g)]
    return [(w, _check_one(config, w, f)) for w, f in pairs]


def _take(queue: int, tasks: list) -> list:
    """The (w, record) pairs of each task whose index this process reads
    from the queue, a pipe of one byte per index, until it is empty."""
    pairs = []
    while index := os.read(queue, 1):
        pairs += _sweep(tasks[index[0]])
    return pairs


class WorkerError(RuntimeError):
    """A forked worker died, or its task raised: the message names the
    worker and how it ended, and the worker's traceback, if it sent one, is
    the cause."""


def _worker(queue: int, tasks: list, read: int, out: int) -> None:
    """A forked child's whole life: close `read`, the read end of its
    pipe, so a write fails if the parent is gone, take tasks (`_take`),
    stream one pickle of (None, pairs), or of (the traceback, None) if that
    raised an Exception, to `out`, and exit, with status 0 once the pickle
    is written.  It never returns, so nothing of the parent's call stack runs
    twice."""
    import pickle

    status = 1
    try:
        os.close(read)
        try:
            sent = (None, _take(queue, tasks))
        except Exception:
            sent = (traceback.format_exc(), None)
        with open(out, "wb") as pipe:
            pickle.dump(sent, pipe)
        status = 0
    finally:
        os._exit(status)


def _fork_join(tasks: list, workers: int) -> list:
    """The (w, record) pairs of every task, over this process and
    workers - 1 forked children.  Every process, this one included, takes
    task indices from one pipe filled before the first fork, until it is
    empty.  Each child sends its pairs, or the traceback of what it raised,
    as one pickle over its own pipe and exits; this process unpickles each
    child's pipe as it reads it, then reaps the child.  Whether it returns or
    raises, no child outlives it: any child not yet reaped is killed and
    reaped."""
    import pickle
    import signal

    assert len(tasks) <= 256, "one byte per task index"
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(tasks))))
    os.close(fill)
    children = []  # (pid, the read end of its pipe), not yet reaped
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(queue, tasks, read, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        done = _take(queue, tasks)
        while children:
            pid, pipe = children[0]
            try:
                trace, pairs = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                trace = pairs = None  # the child died: its status says how
            status = os.waitpid(pid, 0)[1]
            del children[0]
            pipe.close()
            code = os.waitstatus_to_exitcode(status)
            if code < 0:
                raise WorkerError(f"worker {pid} was killed by {signal.Signals(-code).name}")
            if code:
                raise WorkerError(f"worker {pid} exited with status {code}")
            if trace is not None:
                raise WorkerError(f"worker {pid}: {trace.splitlines()[-1]}") from WorkerError(trace)
            done += pairs
        return done
    finally:
        os.close(queue)
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run(config: RunConfig) -> Tuple[dict, int]:
    """Execute the configured batch; return (report, exit_status), where the
    status is 3 if any checker raised, else 1 if any check failed, else 0."""
    config.validate()
    started = time.perf_counter()
    top = perms.longest_element(config.n)
    tasks = [(config, config.perm or top, False)]
    if not config.perm:
        tasks += [(config, w, True) for _, w in poly.first_ascent_children(top)]

    # No more workers than the tasks or the CPUs this process may run on,
    # its affinity set where the platform has one (Linux), else every CPU.
    # Each task carries what it needs, so a worker inherits no state of the
    # run.  One worker needs neither the CPU count nor a fork.
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(workers, cpus or 1)
    if workers == 1:
        done = [pair for task in tasks for pair in _sweep(task)]
    else:
        done = _fork_join(tasks, workers)
    pairs = sorted(done, key=itemgetter(0))
    results = [record for _, record in pairs]

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


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json(obj, indent: str, memo: dict) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it when its
    first line is indented by `indent`: a dict's members in key order, one
    line each, two spaces further in.  Strings go to the C escaper and a
    finite float (from --timings) to float.__repr__, as json.dumps writes
    them; what else is rare (NaN, infinities, a dict with a key that is not
    a string) goes to json.dumps, its lines after the first indented the
    same.  A `Frozen` is rendered once per (identity, indent) into `memo`,
    which is exact: it cannot change, and the report holding it keeps it,
    and so its id, alive while it renders."""
    cls = obj.__class__
    if cls is str:
        return _string(obj)
    if cls is Frozen:
        key = (id(obj), indent)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _json_dict(obj, indent, memo)
        return text
    if cls is dict:
        return _json_dict(obj, indent, memo)
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        members = [int.__repr__(v) if v.__class__ is int else _json(v, inner, memo) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "]"
    if cls is int:
        return int.__repr__(obj)
    if obj is None or cls is bool:
        return _CONSTANTS[obj]
    if cls is float and math.isfinite(obj):
        return float.__repr__(obj)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_dict(obj: dict, indent: str, memo: dict) -> str:
    if not obj:
        return "{}"
    inner = indent + "  "
    try:
        members = [
            _string(k) + ": " + (_string(v) if v.__class__ is str else _json(v, inner, memo))
            for k, v in sorted(obj.items())
        ]
    except TypeError:  # a key that is not a string, which json.dumps converts
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    return "{\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "}"


def _render_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2, sort_keys=True) + "\n",
    without the pure-Python encoder, which json.dumps uses whenever there is
    an indent.  Each value under the report's keys, a record among them, is
    one string (`_json`); the pieces of the top two levels go into one list,
    joined once, so rendering holds those strings and the result.  An entry
    or check table that records share is rendered once per call."""
    if not report:
        return "{}\n"
    out = []
    memo = {}
    head = "{\n  "
    for key, value in sorted(report.items()):
        out.append(head + _string(key) + ": ")
        head = ",\n  "
        if value and value.__class__ is list:
            sep = "[\n    "
            for item in value:
                out.append(sep)
                out.append(_json(item, "    ", memo))
                sep = ",\n    "
            out.append("\n  ]")
        else:
            out.append(_json(value, "  ", memo))
    out.append("\n}\n")
    return "".join(out)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
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
    """--mode print: dump the computed objects for `config.perm`, with 𝔊_w
    built by its first-ascent chain; 𝔖_w is the degree-l(w) part of 𝔊_w."""
    w, length = config.perm, perms.length(config.perm)
    g = poly.grothendieck(w)
    bottom = 8 * config.n  # a code's degree is its bits from here up
    s = poly.Poly({e: c for e, c in g.terms.items() if e >> bottom == length}, config.n)
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
        polytopes.recover_pair(poly.support_view(g)).to_text(),
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
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, this one included, at most the usable CPUs",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="polynomial cache directory, for --mode cache only"
    )
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
    """Exit status: `run`'s in verify mode, else 0; 2, with one `error:` line
    on stderr, for a usage error or a table that cannot be loaded or written;
    3, never a failed check's 1, with the traceback and one `error:` line,
    when any other exception aborts the run: a forked worker that died
    (the line names its exit status or signal) or whose task raised
    outside a checker (its traceback comes first), say."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        config.validate()
        if args.mode == "print":
            if config.perm is None:
                raise ValueError("--mode print requires --perm")
            out, status = print_permutation(config), 0
        elif args.mode == "cache":
            if not config.cache_dir:
                raise ValueError("--mode cache requires --cache-dir")
            from . import cache

            cache.load_or_build(config.cache_dir, config.n, "G")
            cache.load_or_build(config.cache_dir, config.n, "S")
            out, status = "", 0
        else:
            report, status = run(config)
            out = render(report, args.format)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: run aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
