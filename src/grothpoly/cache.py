"""
Polynomial tables for `--mode cache`, its only caller: `load_or_build`
builds 𝔊 by the pipe-dream transfer matrix
(`pipedreams.pd_polynomial_all`) and keeps it, with 𝔖, in a byte-stable
on-disk cache.  𝔖_w is the degree-l(w) part of 𝔊_w (Lascoux–Schützenberger),
so one pass over 𝔊 writes both files (`write_tables`), and no run builds
𝔖 on its own.  No verify or print run reads the tables (`poly.walk`).

Format: first line `grothcache v1 n=<n> flavor=<S|G>`, then one line per
permutation `<comma one-line word>|<canonical polynomial text>`, sorted by
one-line word.

The reader validates what it loads: the header (a mismatch means rebuild),
the line shape `word|text`, a word that is a permutation of [n] not seen
before in the file, and through `poly.parse_text` a nonempty polynomial (no
𝔊_w or 𝔖_w is zero), nonzero coefficients, exponent vectors in the
staircase box of S_n (length n, entries 0 <= alpha_i <= n - i), and no
repeated exponent within a polynomial.  It codes each distinct exponent
text once per file (`poly.code`), so equal exponents across the table share
one int.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
from typing import Dict, Optional

from . import perms, pipedreams, poly

HEADER_PREFIX = "grothcache v1"


def cache_path(cache_dir: str, n: int, flavor: str) -> str:
    return os.path.join(cache_dir, f"grothcache_n{n}_{flavor}.txt")


def _box_texts(n: int) -> Dict[int, str]:
    """code -> text of every exponent vector in the staircase box of S_n,
    inserted in term order: alpha_n = 0, then each alpha_i, i = n - 1 down
    to 1, ranges over 0 .. n - i inside each prefix of the coordinates above
    it, adding alpha_i (256^(i-1) + 256^n) to the code (`poly.code`)."""
    points = [(0, "0")]
    for i in range(n - 1, 0, -1):
        unit = (1 << 8 * (i - 1)) + (1 << 8 * n)
        points = [(c + a * unit, f"{a},{text}") for c, text in points for a in range(n - i + 1)]
    return dict(points)


def write_tables(table: poly.PolynomialTable, paths: Dict[str, str]) -> None:
    """Write the file of each flavor in `paths` from `table`, in one pass
    over S_n: each polynomial's terms are sorted into term order, by their
    rank in the staircase box, and formatted once; its G line joins them
    all, its S line those of degree l(w), the lowest degree of 𝔊_w and the
    only one of 𝔖_w.  Each file is written under a temporary name in its
    directory, then renamed over its path, so a concurrent reader sees the
    old file or the whole new one, never a torn last line; lines are
    written as they are formatted, so no file is held in memory."""
    n, bottom = table.n, 8 * table.n  # a code's degree is its bits from `bottom` up
    texts = _box_texts(n)
    rank = {c: k for k, c in enumerate(texts)}.__getitem__
    tmps = {flavor: f"{path}.{os.getpid()}.tmp" for flavor, path in paths.items()}
    try:
        with contextlib.ExitStack() as stack:
            files = {flavor: stack.enter_context(open(tmp, "w")) for flavor, tmp in tmps.items()}
            for flavor, fh in files.items():
                fh.write(f"{HEADER_PREFIX} n={n} flavor={flavor}\n")
            g_file, s_file = files.get("G"), files.get("S")
            for w in sorted(table.polys):
                terms = table[w].terms
                keys = sorted(terms, key=rank)
                chunks = [f"{terms[c]}:{texts[c]}" for c in keys]
                word = perms.format_perm(w)
                if g_file:
                    g_file.write(f"{word}|{';'.join(chunks)}\n")
                if s_file:
                    low = map(((perms.length(w) + 1) << bottom).__gt__, keys)
                    s_file.write(f"{word}|{';'.join(itertools.compress(chunks, low))}\n")
        for flavor, tmp in tmps.items():
            os.replace(tmp, paths[flavor])
    except BaseException:
        for tmp in tmps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def write_table(table: poly.PolynomialTable, path: str) -> None:
    """Write `table` to `path` as its flavor (`write_tables`)."""
    write_tables(table, {table.flavor: path})


def read_table(path: str, n: int, flavor: str) -> Optional[poly.PolynomialTable]:
    """Read a cache file.  A header mismatch returns None (caller rebuilds);
    a corrupt body line (bad `word|text` shape, a word that is not a
    permutation of [n] or repeats an earlier one, an empty polynomial, zero
    coefficient, exponent vector outside the staircase box, repeated
    exponent) is a hard error naming the line.  Equal codes in the returned
    table are one shared int.
    The file is read one line at a time, so it is never held in memory
    beside the table."""
    polys = {}
    codes: dict = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != f"{HEADER_PREFIX} n={n} flavor={flavor}":
            return None
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, body = line.split("|", 1)
                w = perms.parse_perm(word)
                if len(w) != n:
                    raise ValueError(f"{word!r} is not a permutation of [{n}]")
                if w in polys:
                    raise ValueError(f"repeated permutation {word!r}")
                polys[w] = poly.parse_text(body, n, codes)
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: corrupt cache line: {exc}") from exc
    return poly.PolynomialTable(n, flavor, polys)


def load_or_build(cache_dir: str, n: int, flavors: str) -> None:
    """Make the cache file of each flavor in `flavors` ("G", "S" or "GS")
    current.  A warm file, one whose header matches and that holds all n!
    permutations, is read, and so checked, and kept.  The cold ones are
    written from one 𝔊 table, in one pass: the table read from a warm G
    file, else one pipe-dream build.  Nothing is returned: `--mode cache`
    wants the files, and a 𝔖 table beside them would cost about as much to
    build as the pass that writes 𝔖."""
    tables, cold = {}, {}
    for flavor in flavors:
        path = cache_path(cache_dir, n, flavor)
        table = read_table(path, n, flavor) if os.path.exists(path) else None
        if table is not None and len(table) == math.factorial(n):
            tables[flavor] = table
        else:
            cold[flavor] = path
    if not cold:
        return
    if "G" in tables:
        table = tables["G"]
    else:
        table = poly.PolynomialTable(n, "G", pipedreams.pd_polynomial_all(n, "grothendieck"))
    os.makedirs(cache_dir, exist_ok=True)
    if "S" in cold:
        write_tables(table, cold)
    else:  # 𝔊 alone: the one-file writer, which the benchmark's tracer times
        write_table(table, cold["G"])
