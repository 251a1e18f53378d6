"""
grothpoly benchmark.  From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads: sweep-n6-all, sweep-n7-battery-j2 (see README.md).
Every phase runs in a fresh Python process (workloads.py).  With --trace 0
the run sets up five or two times, then runs the timed phase once and again
while another should end within S seconds, and reports medians of the
end-to-end metrics.  Their times are at the host's nominal CPU speed, as
probe.py measures it where the work runs; the raw wall times are printed
above the result line.
With --trace 1 it runs the timed phase once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is 0 only if every output passed its
correctness gate.  All inputs are the whole of S_n, so --seed selects
nothing; it is recorded with the result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import layer_metrics, tail
from workloads import ROOT, SRC, WORKLOADS

# Every run must end within 180 s; leave room to clean up and report.
BUDGET_S = 170.0
OUT_DIR = ROOT / ".perfbench"


class PhaseFailed(Exception):
    pass


class Runner:
    """Starts the phase processes of one benchmark run inside `work`."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.started = time.perf_counter()
        self.phases = 0

    def left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def phase(self, phase: str, data_dir: Path, trace_id: str = None) -> dict:
        self.phases += 1
        out = self.work / f"phase-{self.phases}.json"
        cmd = [
            sys.executable,
            str(Path(__file__).with_name("workloads.py")),
            phase,
            self.workload.name,
            "--work",
            str(data_dir),
            "--out",
            str(out),
        ]
        if trace_id:
            cmd += ["--trace", trace_id]
        data_dir.mkdir(exist_ok=True)
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            _, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            err = b"timed out"
        finally:
            # The phase's pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        result = json.loads(out.read_text()) if out.exists() else {}
        if proc.returncode != 0 or "error" in result or not result:
            raise PhaseFailed(result.get("error") or err.decode(errors="replace"))
        return result


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "grothpoly").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_rev": rev,
        "src_sha256": tree.hexdigest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def end_to_end(runner: Runner, seconds: float) -> dict:
    w = runner.workload
    setups = []
    for k in range(w.setups):
        # Each set-up starts from an empty directory; the timed phases use
        # the last one.
        data = runner.work / f"cache-{k}"
        setups.append(runner.phase("setup", data))
        if k:
            shutil.rmtree(runner.work / f"cache-{k - 1}")
    # Start another timed phase only while it should end within `seconds`
    # and within the run's time budget.
    timed = []
    start = time.perf_counter()
    while not timed or (
        time.perf_counter() - start + timed[-1]["wall_s"] <= seconds
        and timed[-1]["wall_s"] < runner.left()
    ):
        timed.append(runner.phase("timed", data))
    wall = statistics.median(r["nominal_s"] for r in timed)
    metrics = {
        "wall_nominal_s": (wall, "s"),
        "perms_per_s": (math.factorial(w.n) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in timed) / 1024, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    # The raw wall times, for the record; the metrics above are at nominal
    # CPU speed (probe.py).
    notes = {
        "setups": len(setups),
        "timed_runs": len(timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "probe_samples": sum(r["probe_samples"] for r in setups + timed),
    }
    return _outcome(setups + timed, timed, metrics, notes)


def traced(runner: Runner, seed: int) -> dict:
    w = runner.workload
    spans, applications, setups = [], 0, []
    data = runner.work / "cache"
    if w.warm_cache:
        setups.append(runner.phase("setup", data, trace_id=f"{w.name}/setup/{seed}"))
    plain = runner.phase("timed", data)
    trace = runner.phase("timed", data, trace_id=f"{w.name}/timed/{seed}")
    for phase in setups + [trace]:
        spans += phase["spans"]
        applications += phase["operator_applications"]
    metrics = layer_metrics(
        spans, {"operator_applications": applications, "report_bytes": trace["report_bytes"]}
    )
    metrics["trace.overhead_s"] = (trace["nominal_s"] - plain["nominal_s"], "s")
    metrics["wall_s"] = (plain["wall_s"], "s")
    metrics["probe.speed"] = (plain["nominal_s"] / plain["wall_s"], "ratio")
    # Too unsteady across runs for an end-to-end bound on this class of
    # machine, so they are reported here, from the untraced phase.
    metrics["perm_p50_ms"] = (statistics.median(plain["perm_seconds"]) * 1e3, "ms")
    metrics["perm_tail_ms"] = (tail(plain["perm_seconds"]) * 1e3, "ms")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{w.name}-seed{seed}.json", "w") as fh:
        json.dump(spans, fh)
    notes = {"jobs_traced": w.jobs, "perm_samples": len(plain["perm_seconds"])}
    return _outcome(setups + [plain, trace], [plain, trace], metrics, notes)


def _outcome(phases, timed, metrics, notes) -> dict:
    correct = all(r["correct"] for r in phases)
    attempted = sum(r["attempted"] for r in timed)
    return {
        "correct": correct,
        "attempted": attempted,
        # A gate failure anywhere, set-up included, fails every operation.
        "failed": sum(r["failed"] for r in timed) if correct else attempted,
        "metrics": metrics,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grothpoly benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grothpoly" / "__init__.py").is_file():
        print(f"error: no grothpoly sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally clauses that kill and reap the
    # running phase and delete the scratch data.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    runner = Runner(workload, work)
    try:
        if args.trace:
            outcome = traced(runner, args.seed)
        else:
            outcome = end_to_end(runner, args.seconds)
    except PhaseFailed as exc:
        print(f"error: a phase of {workload.name} failed:\n{exc}", file=sys.stderr)
        # An exception fails every operation of the run.
        attempted = workload.operations * (2 if args.trace else 1)
        outcome = {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}, "notes": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{workload.name} " + json.dumps(outcome["notes"], sort_keys=True))
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(
        f"{workload.name} fail_ratio = {outcome['failed'] / outcome['attempted']:.6g} "
        f"({outcome['failed']}/{outcome['attempted']} operations)"
    )
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
