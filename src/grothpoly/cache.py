"""
Polynomial tables for `--mode cache`, its only caller: `load_or_build`
builds them by the pipe-dream transfer matrix
(`pipedreams.pd_polynomial_all`) and keeps them in a byte-stable on-disk
cache.  No verify or print run reads them (`poly.walk`).

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
one int; the writer decodes each distinct code once.
"""
from __future__ import annotations

import contextlib
import math
import os
from typing import Optional

from . import perms, pipedreams, poly

HEADER_PREFIX = "grothcache v1"


def cache_path(cache_dir: str, n: int, flavor: str) -> str:
    return os.path.join(cache_dir, f"grothcache_n{n}_{flavor}.txt")


def write_table(table: poly.PolynomialTable, path: str) -> None:
    """Write the file under a temporary name in the same directory, then
    rename it over `path`, so a concurrent reader sees the old file or the
    whole new one, never a torn last line.  Each line is written as it is
    formatted, so the file is never held in memory."""
    texts: dict = {}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(f"{HEADER_PREFIX} n={table.n} flavor={table.flavor}\n")
            for w in sorted(table.polys):
                fh.write(f"{perms.format_perm(w)}|{table[w].to_text(texts)}\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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


def load_or_build(cache_dir: Optional[str], n: int, flavor: str) -> poly.PolynomialTable:
    """Warm path: read a matching cache file.  Cold path: build with the
    pipe-dream transfer matrix and, when a cache directory is configured,
    persist."""
    if cache_dir:
        path = cache_path(cache_dir, n, flavor)
        if os.path.exists(path):
            table = read_table(path, n, flavor)
            if table is not None and len(table) == math.factorial(n):
                return table
    mode = {"G": "grothendieck", "S": "schubert"}[flavor]
    table = poly.PolynomialTable(n, flavor, pipedreams.pd_polynomial_all(n, mode))
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        write_table(table, cache_path(cache_dir, n, flavor))
    return table

