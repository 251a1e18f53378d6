"""
Pure helpers of the benchmark: order statistics, span arithmetic, the
correctness gate's digests, and the per-layer metrics derived from a trace.

A span is a dict with keys `id`, `parent`, `name`, `start`, `end`, `run` and,
optionally, `attrs` (counts recorded at the boundary).  Span names are
`<module>.<function>`, e.g. `posets.check_conjecture_1`.
"""
from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Tuple

# The tail percentile is the highest one with at least ten samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Iterable[float]) -> float:
    """The 11th-largest sample, so that exactly ten samples lie beyond it
    (p98.5 of 720 samples, p99.8 of 5040)."""
    ordered = sorted(samples, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[TAIL_BEYOND]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: dict, children: Iterable[dict]) -> float:
    """Duration of the span minus the part of it its children cover.
    Overlapping children (parallel workers) are counted once."""
    intervals = [(c["start"], c["end"]) for c in children]
    return span["end"] - span["start"] - covered(intervals, span["start"], span["end"])


# ---------------------------------------------------------------- gate

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def strip_timings(report: dict) -> dict:
    """A copy of a `cli.run` report without the fields `--timings` adds, so
    that it can be compared byte for byte with the recorded digest."""
    out = json.loads(json.dumps(report))
    out["summary"].pop("wall_seconds", None)
    for record in out["results"]:
        record.pop("seconds", None)
    return out


# ---------------------------------------------------------------- layers

# Per-layer metric -> span name whose durations it sums (inclusive time).
SPAN_SECONDS = {
    "poly.build_table.S.s": ("poly.build_table", "S"),
    "poly.build_table.G.s": ("poly.build_table", "G"),
    "cache.write_s": ("cache.write_table", None),
    "cache.read_s": ("cache.read_table", None),
    "pipedreams.pd_all.G.s": ("pipedreams.pd_polynomial_all", "grothendieck"),
    "pipedreams.pd_all.S.s": ("pipedreams.pd_polynomial_all", "schubert"),
    "posets.conj1.s": ("posets.check_conjecture_1", None),
    "posets.conj2.s": ("posets.check_conjecture_2", None),
    "posets.conj3.s": ("posets.check_conjecture_3", None),
    "posets.coeff.s": ("posets.check_conjecture_coeff", None),
    "posets.mobius_check.s": ("posets.check_conjecture_mobius", None),
    "posets.build_Pw.s": ("posets.build_Pw", None),
    "posets.mobius.s": ("posets.mobius", None),
    "polytopes.conj4.s": ("polytopes.check_conjecture_4", None),
    "polytopes.recover_pair.s": ("polytopes.recover_pair", None),
    "polytopes.is_paramodular.s": ("polytopes.is_paramodular", None),
    "polytopes.lattice_points_of_pair.s": ("polytopes.lattice_points_of_pair", None),
    "polytopes.superset.s": ("polytopes.check_superset", None),
    "polytopes.fms.s": ("polytopes.check_fms", None),
    "polytopes.converse.s": ("polytopes.check_prop_converse", None),
    "polytopes.spanning_sumset.s": ("polytopes.spanning_sumset", None),
    "polytopes.base_sumset.s": ("polytopes.base_sumset", None),
    "cli.run.s": ("cli.run", None),
    "cli.render.s": ("cli.render", None),
}

POSETS_CHECKS = tuple(
    f"posets.{name}"
    for name in (
        "check_conjecture_1",
        "check_conjecture_2",
        "check_conjecture_3",
        "check_conjecture_coeff",
        "check_conjecture_mobius",
    )
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did not run (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], counters: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).  A layer that did
    not run on the workload reads 0."""
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def named(name: str, tag=None) -> List[dict]:
        found = by_name.get(name, [])
        if tag is None:
            return found
        return [s for s in found if s["attrs"]["tag"] == tag]

    def seconds(found: List[dict]) -> float:
        return sum(s["end"] - s["start"] for s in found)

    def attr(found: List[dict], key: str) -> int:
        return sum(s["attrs"][key] for s in found)

    out: Dict[str, Tuple[float, str]] = {}
    for metric, (name, tag) in SPAN_SECONDS.items():
        out[metric] = (seconds(named(name, tag)), "s")

    # perms: inclusive time of the outermost perms.* call in each chain.
    def is_perms(span_id) -> bool:
        return span_id in by_id and by_id[span_id]["name"].startswith("perms.")

    out["perms.s"] = (
        seconds([s for s in spans if s["name"].startswith("perms.") and not is_perms(s["parent"])]),
        "s",
    )

    terms_g = attr(named("poly.build_table", "G"), "terms")
    out["poly.terms.S"] = (attr(named("poly.build_table", "S"), "terms"), "count")
    out["poly.terms.G"] = (terms_g, "count")
    out["poly.terms_per_s.G"] = (_ratio(terms_g, out["poly.build_table.G.s"][0]), "1/s")
    out["poly.operator_applications"] = (counters.get("operator_applications", 0), "count")
    out["poly.maxrss_mb"] = (
        max((s["attrs"]["maxrss_kb"] for s in named("poly.build_table")), default=0) / 1024,
        "MB",
    )

    written = attr(named("cache.write_table"), "bytes")
    read = attr(named("cache.read_table"), "bytes")
    out["cache.bytes"] = (written, "count")
    out["cache.write_MBps"] = (_ratio(written / 1e6, out["cache.write_s"][0]), "MB/s")
    out["cache.read_MBps"] = (_ratio(read / 1e6, out["cache.read_s"][0]), "MB/s")
    loads = named("cache.load_or_build")
    out["cache.hits"] = (sum(1 for s in loads if s["attrs"]["hit"]), "count")
    out["cache.misses"] = (sum(1 for s in loads if not s["attrs"]["hit"]), "count")

    subsets = attr(named("pipedreams.pd_polynomial_all"), "subsets")
    pd_seconds = out["pipedreams.pd_all.G.s"][0] + out["pipedreams.pd_all.S.s"][0]
    out["pipedreams.subsets"] = (subsets, "count")
    out["pipedreams.us_per_subset"] = (_ratio(pd_seconds * 1e6, subsets), "us")

    pw = named("posets.build_Pw")
    out["posets.Pw_elements"] = (attr(pw, "elements"), "count")
    out["posets.Pw_box_points"] = (attr(pw, "box"), "count")
    out["posets.Pw_useful_ratio"] = (_ratio(attr(pw, "elements"), attr(pw, "box")), "ratio")
    out["posets.support_terms"] = (
        sum(attr(named(name), "terms") for name in POSETS_CHECKS),
        "count",
    )

    lattice = named("polytopes.lattice_points_of_pair")
    out["polytopes.lattice_box_points"] = (attr(lattice, "box"), "count")
    out["polytopes.lattice_points"] = (attr(lattice, "points"), "count")
    out["polytopes.lattice_useful_ratio"] = (
        _ratio(attr(lattice, "points"), attr(lattice, "box")),
        "ratio",
    )

    # cli.sweep: cli.run less the time its cache and oracle children cover.
    runs = named("cli.run")
    sweep = sum(
        self_time(
            run,
            [c for c in children.get(run["id"], []) if c["name"].split(".")[0] in ("cache", "pipedreams")],
        )
        for run in runs
    )
    perm_seconds = seconds(named("cli._check_one"))
    jobs = max((run["attrs"]["jobs"] for run in runs), default=0)
    out["cli.sweep.s"] = (sweep, "s")
    out["cli.perm_seconds"] = (perm_seconds, "s")
    out["cli.jobs"] = (jobs, "count")
    out["cli.parallel_efficiency"] = (_ratio(perm_seconds, jobs * sweep), "ratio")
    out["cli.report_bytes"] = (counters.get("report_bytes", 0), "count")
    for status in ("pass", "fail", "skip"):
        out[f"cli.check_pairs.{status}"] = (attr(runs, status), "count")
    out["trace.spans"] = (len(spans), "count")
    return out
