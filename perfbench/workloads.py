"""
The benchmark workloads, and the entry point of the fresh process that runs
one phase of one of them:

    python3 perfbench/workloads.py {setup,timed} WORKLOAD --work DIR --out FILE [--trace RUN_ID]

`setup` times importing grothpoly and, for a warm-cache workload, building
the n=7 cache into DIR.  `timed` runs the workload once against DIR and gates
its output on the digests in digests.json.  Both time their work twice: as
wall seconds, and as seconds at the host's nominal CPU speed (probe.py).
Either writes one JSON object to FILE.  With --trace, grothpoly's layer
boundaries are wrapped (tracer.py) and the spans go into FILE too.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from probe import PERIOD, SETUP_PERIOD, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).with_name("digests.json")

BATTERY = ("conj1", "conj2", "conj3", "coeff", "rajchgot")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # Checks of the sweep (None: all twelve).
    checks: Optional[Tuple[str, ...]]
    jobs: int
    warm_cache: bool
    # Operations per timed run: one per (permutation, check) pair.
    operations: int
    # Set-ups per end-to-end run; setup_s is their median.  Two for the
    # warm-cache workload, whose set-up builds both n=7 tables (~10 s).
    setups: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n6-all", 6, None, 1, False, 720 * 12, 5),
        Workload("sweep-n7-battery-j2", 7, BATTERY, 2, True, 5040 * len(BATTERY), 2),
    )
}


def _import_grothpoly():
    sys.path.insert(0, str(SRC))
    import grothpoly
    from grothpoly import cache, cli  # noqa: F401  (part of what set-up pays)

    if Path(grothpoly.__file__).resolve().parent != SRC / "grothpoly":
        raise RuntimeError(f"imported grothpoly from {grothpoly.__file__}, not from {SRC}")


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _probe(work: str, period: float) -> Probe:
    # A fresh sink for the samples of forked workers, beside the phase's data.
    Path(work).mkdir(parents=True, exist_ok=True)
    return Probe(tempfile.mkdtemp(prefix="probe-", dir=work), period)


def _cache_ok(n: int, work: str, digests: dict) -> bool:
    from grothpoly import cache
    from metrics import sha256_file

    return all(
        sha256_file(cache.cache_path(work, n, flavor)) == digests[f"n{n}_{flavor}"]
        for flavor in ("S", "G")
    )


def setup(workload: Workload, work: str, digests: dict) -> dict:
    def run() -> None:
        _import_grothpoly()
        if workload.warm_cache:
            from grothpoly import cli

            status = cli.main(["--n", str(workload.n), "--mode", "cache", "--cache-dir", work])
            if status != 0:
                raise RuntimeError(f"cache build exited {status}")

    _, wall, nominal, samples = _probe(work, SETUP_PERIOD).measure(run)
    correct = _cache_ok(workload.n, work, digests) if workload.warm_cache else True
    return {"setup_s": nominal, "setup_wall_s": wall, "probe_samples": samples, "correct": correct}


def timed(workload: Workload, work: str, digests: dict) -> dict:
    _import_grothpoly()
    from grothpoly import cli
    from metrics import sha256_bytes, strip_timings

    config = cli.RunConfig(
        n=workload.n,
        checks=workload.checks or cli.ALL_CHECKS,
        jobs=workload.jobs,
        cache_dir=work if workload.warm_cache else None,
        timings=True,
    )

    def run():
        report, status = cli.run(config)
        cli.render(report, "json")
        return report, status

    (report, status), wall, nominal, samples = _probe(work, PERIOD).measure(run)
    gated = cli.render(strip_timings(report), "json").encode()
    summary = report["summary"]
    attempted = sum(len(record["checks"]) for record in report["results"])
    correct = status == 0 and summary["all_pass"] and sha256_bytes(gated) == digests[workload.name]
    return {
        "wall_s": wall,
        "nominal_s": nominal,
        "probe_samples": samples,
        "perm_seconds": [record["seconds"] for record in report["results"]],
        "peak_rss_kb": _peak_rss_kb(),
        "attempted": attempted,
        # A gate failure fails every operation of the run.
        "failed": summary["fail"] if correct else attempted,
        "correct": correct,
        "report_bytes": len(gated),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("phase", choices=("setup", "timed"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="run id; wraps the layer boundaries")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with open(DIGESTS) as fh:
        digests = json.load(fh)

    tracer = None
    try:
        if args.trace:
            _import_grothpoly()
            from grothpoly import poly
            from tracer import Tracer, install

            tracer = Tracer(args.trace)
            install(tracer)
            applications = poly.OPERATOR_APPLICATIONS
        out = (setup if args.phase == "setup" else timed)(workload, args.work, digests)
        if tracer:
            tracer.uninstall()
            out["spans"] = tracer.spans
            out["operator_applications"] = poly.OPERATOR_APPLICATIONS - applications
        status = 0
    except Exception:
        out = {"error": traceback.format_exc()}
        status = 1
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
