"""
Span tracer for the traced run.  It wraps grothpoly's public functions from
outside the package by swapping module attributes, so no file under `src/`
changes.  Calls between grothpoly modules go through module attributes
(`perms.length`, `cache.write_table`, ...), and a module's own globals are its
attributes, so internal calls are caught too.

Spans stay in memory.  In a worker forked by `cli.run --jobs k`, the spans of
each `cli._check_one` call ride back to the parent on the returned record
under `_spans`; the `cli.run` wrapper moves them into the parent's list and
removes the key, so the report is the same as in an untraced run.

Hot leaf helpers (`posets.componentwise_leq`, `poly.term_key`,
`polytopes.sumset`, ...) are deliberately not wrapped: they run millions of
times per sweep and a span on each would swamp the layers being measured.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import resource
import time
from typing import Callable, List, Optional


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.owner_pid = self.pid = os.getpid()
        self.spans: List[dict] = []
        self.stack: List[str] = []
        self.count = 0
        self.paused = False
        self._restore = []

    def wrap(self, module, attr: str, hook: Optional[Callable] = None, export: bool = False) -> None:
        """Replace module.attr by a function recording one span per call.

        `hook(*args)` runs before the call and returns `finish(result)`,
        which gives the span's `attrs`; both run with tracing paused, so
        they may call grothpoly without recording spans.  With `export`, a
        call in a forked worker attaches the worker's spans to its (dict)
        result."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if os.getpid() != self.pid:
                # First call in a forked worker: drop the parent's spans,
                # keep its open stack so worker spans name their parent.
                self.pid = os.getpid()
                self.spans = []
            self.count += 1
            span = {
                "id": f"{self.pid}.{self.count}",
                "parent": self.stack[-1] if self.stack else None,
                "name": name,
                "run": self.run_id,
            }
            finish = self._paused(hook, *args, **kwargs) if hook else None
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if finish:
                span["attrs"] = self._paused(finish, result)
            if export and self.pid != self.owner_pid:
                result["_spans"] = self.spans
                self.spans = []
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def _paused(self, fn, *args, **kwargs):
        self.paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            self.paused = False

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of grothpoly that the per-layer metrics
    read.  Must run before any worker forks."""
    from grothpoly import cache, cli, perms, pipedreams, poly, posets, polytopes

    for name, fn in vars(perms).items():
        if inspect.isfunction(fn) and fn.__module__ == perms.__name__ and not name.startswith("_"):
            tracer.wrap(perms, name)

    def table_hook(n, flavor):
        return lambda table: {
            "tag": flavor,
            "terms": sum(len(p.terms) for p in table.polys.values()),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    tracer.wrap(poly, "build_table", hook=table_hook)

    def write_hook(table, path):
        return lambda _: {"bytes": os.path.getsize(path)}

    def read_hook(path, n, flavor):
        return lambda _: {"bytes": os.path.getsize(path)}

    def load_hook(cache_dir, n, flavor):
        before = poly.OPERATOR_APPLICATIONS
        return lambda _: {"hit": poly.OPERATOR_APPLICATIONS == before}

    tracer.wrap(cache, "write_table", hook=write_hook)
    tracer.wrap(cache, "read_table", hook=read_hook)
    tracer.wrap(cache, "load_or_build", hook=load_hook)

    def pd_hook(n, mode):
        return lambda _: {"tag": mode, "subsets": 2 ** len(pipedreams.staircase_cells(n))}

    tracer.wrap(pipedreams, "pd_polynomial_all", hook=pd_hook)

    def terms_hook(w, groth):
        return lambda _: {"terms": len(groth.terms)}

    for name in (
        "check_conjecture_1",
        "check_conjecture_2",
        "check_conjecture_3",
        "check_conjecture_coeff",
        "check_conjecture_mobius",
    ):
        tracer.wrap(posets, name, hook=terms_hook)

    def pw_hook(w, groth):
        bound = perms.weight(perms.upper_closure(perms.rothe_diagram(w)))
        return lambda P: {"elements": len(P.elements), "box": math.prod(b + 1 for b in bound)}

    tracer.wrap(posets, "build_Pw", hook=pw_hook)
    tracer.wrap(posets, "mobius")

    def lattice_hook(pair):
        box = math.prod(max(0, pair.z[1 << i] - pair.y[1 << i] + 1) for i in range(pair.n))
        return lambda points: {"box": box, "points": len(points)}

    for name in (
        "check_conjecture_4",
        "recover_pair",
        "is_paramodular",
        "check_superset",
        "check_fms",
        "check_prop_converse",
        "spanning_sumset",
        "base_sumset",
    ):
        tracer.wrap(polytopes, name)
    tracer.wrap(polytopes, "lattice_points_of_pair", hook=lattice_hook)

    def run_hook(config):
        def finish(result):
            report, _ = result
            for record in report["results"]:
                tracer.spans.extend(record.pop("_spans", ()))
            summary = report["summary"]
            return {
                "jobs": config.jobs,
                "pass": summary["pass"],
                "fail": summary["fail"],
                "skip": summary["skip"],
            }

        return finish

    tracer.wrap(cli, "run", hook=run_hook)
    tracer.wrap(cli, "render")
    tracer.wrap(cli, "_check_one", export=True)
