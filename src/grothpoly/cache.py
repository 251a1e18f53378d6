"""
Byte-stable on-disk cache of polynomial tables.

Format: first line `grothcache v1 n=<n> flavor=<S|G>`, then one line per
permutation `<comma one-line word>|<canonical polynomial text>`, sorted by
one-line word.

The reader validates what it loads: the header (a mismatch means rebuild),
the line shape `word|text`, and through `poly.parse_text` nonzero
coefficients, exponent vectors of length n with entries >= 0, and no
repeated exponent within a polynomial.  It parses each distinct exponent
vector once per file, so equal vectors across the table share one tuple; the
writer likewise formats each distinct vector once per file.
"""
from __future__ import annotations

import math
import os
from typing import Optional

from . import perms, poly

HEADER_PREFIX = "grothcache v1"


def cache_path(cache_dir: str, n: int, flavor: str) -> str:
    return os.path.join(cache_dir, f"grothcache_n{n}_{flavor}.txt")


def write_table(table: poly.PolynomialTable, path: str) -> None:
    lines = [f"{HEADER_PREFIX} n={table.n} flavor={table.flavor}"]
    texts: dict = {}
    for w in sorted(table.polys):
        lines.append(f"{perms.format_perm(w)}|{table[w].to_text(texts)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str, n: int, flavor: str) -> Optional[poly.PolynomialTable]:
    """Read a cache file.  A header mismatch returns None (caller rebuilds);
    a corrupt body line (bad `word|text` shape, zero coefficient, exponent
    vector of the wrong length or with a negative entry, repeated exponent)
    is a hard error naming the line.  Equal exponent vectors in the returned
    table are one shared tuple."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"{HEADER_PREFIX} n={n} flavor={flavor}":
        return None
    polys = {}
    vectors: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            word, body = line.split("|", 1)
            w = perms.parse_perm(word)
            polys[w] = poly.parse_text(body, n, vectors)
        except Exception as exc:
            raise ValueError(f"{path}:{lineno}: corrupt cache line: {exc}") from exc
    return poly.PolynomialTable(n, flavor, polys)


def load_or_build(cache_dir: Optional[str], n: int, flavor: str) -> poly.PolynomialTable:
    """Warm path: read a matching cache file.  Cold path: build and, when a
    cache directory is configured, persist."""
    if cache_dir:
        path = cache_path(cache_dir, n, flavor)
        if os.path.exists(path):
            table = read_table(path, n, flavor)
            if table is not None and len(table) == math.factorial(n):
                return table
    table = poly.build_table(n, flavor)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        write_table(table, cache_path(cache_dir, n, flavor))
    return table


def cache_roundtrip(table: poly.PolynomialTable, cache_dir: str) -> poly.PolynomialTable:
    """Write the table, read it back, and return the reloaded copy."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, table.n, table.flavor)
    write_table(table, path)
    reloaded = read_table(path, table.n, table.flavor)
    if reloaded is None:
        raise AssertionError("freshly written cache failed its own header check")
    return reloaded

