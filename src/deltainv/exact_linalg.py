"""Exact linear algebra over the rationals and over prime fields.

Matrices are stored sparsely (one dict per row).  Rational elimination is
fraction-free: rows keep integer entries and are renormalized by their gcd;
pivots are chosen by a Markowitz-style count to limit fill-in, which keeps
the large structured kernels computed elsewhere in the library tractable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ExactMatrix:
    def __init__(self, rows, field: int | None = None, ncols: int | None = None):
        self.field = field
        if rows and isinstance(rows[0], dict):
            if ncols is None:
                raise ValueError("ncols is required for sparse input")
            self.ncols = ncols
            src = rows
        else:
            self.ncols = ncols if ncols is not None else (
                len(rows[0]) if rows else 0)
            src = [{j: v for j, v in enumerate(row) if v} for row in rows]
        self.rows = []
        for row in src:
            clean = {}
            for j, v in row.items():
                v = self._normalize(v)
                if v:
                    clean[j] = v
            self.rows.append(clean)

    def _normalize(self, v):
        if self.field is not None:
            return int(v) % self.field
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return int(v)
            return v
        return v

    def _int_rows(self):
        """Rows cleared of denominators, as integer dicts."""
        out = []
        for row in self.rows:
            den = 1
            for v in row.values():
                if isinstance(v, Fraction):
                    den = den * v.denominator // gcd(den, v.denominator)
            out.append({j: int(v * den) for j, v in row.items()})
        return out


def _eliminate(matrix: ExactMatrix):
    """Sparse Gaussian elimination.

    Returns (pivots, rows) where pivots is the list of (column, row_index)
    in selection order and rows maps row_index to its final sparse content.
    """
    field = matrix.field
    if field is None:
        rows = dict(enumerate(matrix._int_rows()))
    else:
        rows = {i: dict(r) for i, r in enumerate(matrix.rows)}

    # column -> set of active row indices with a nonzero entry there
    col_rows: dict = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def drop(i, j):
        s = col_rows.get(j)
        if s is not None:
            s.discard(i)
            if not s:
                del col_rows[j]

    pivots = []
    done = set()
    while True:
        # Markowitz pivot: sparsest column, then sparsest row in it
        best = None
        for j, s in col_rows.items():
            cand = (len(s), j)
            if best is None or cand < best:
                best = cand
        if best is None:
            break
        pc = best[1]
        pr = min(col_rows[pc], key=lambda i: len(rows[i]))
        pivots.append((pc, pr))
        done.add(pr)
        prow = rows[pr]
        pval = prow[pc]
        for j in prow:
            drop(pr, j)
        targets = list(col_rows.get(pc, ()))
        for i in targets:
            row = rows[i]
            factor = row[pc]
            if field is None:
                g = gcd(pval, factor)
                mp, mf = pval // g, factor // g
                for j, v in prow.items():
                    nv = row.get(j, 0) * mp - v * mf
                    if j in row:
                        if nv:
                            row[j] = nv
                        else:
                            del row[j]
                            drop(i, j)
                    elif nv:
                        row[j] = nv
                        col_rows.setdefault(j, set()).add(i)
                    # scale untouched entries afterwards
                if mp != 1:
                    for j in row:
                        if j not in prow:
                            row[j] *= mp
                if row:
                    g = 0
                    for v in row.values():
                        g = gcd(g, v)
                    if g > 1:
                        for j in row:
                            row[j] //= g
            else:
                mul = factor * pow(pval, -1, field) % field
                for j, v in prow.items():
                    nv = (row.get(j, 0) - mul * v) % field
                    if j in row:
                        if nv:
                            row[j] = nv
                        else:
                            del row[j]
                            drop(i, j)
                    elif nv:
                        row[j] = nv
                        col_rows.setdefault(j, set()).add(i)
    return pivots, rows


def rank(matrix: ExactMatrix) -> int:
    pivots, _ = _eliminate(matrix)
    return len(pivots)


def kernel_basis(matrix: ExactMatrix):
    """Basis of the right kernel, one vector per free column."""
    pivots, rows = _eliminate(matrix)
    field = matrix.field
    pivot_cols = {pc for pc, _ in pivots}
    free_cols = [j for j in range(matrix.ncols) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        x = {fc: 1}
        for pc, pr in reversed(pivots):
            row = rows[pr]
            acc = 0
            for j, v in row.items():
                if j != pc and j in x:
                    acc += v * x[j]
            if acc:
                if field is None:
                    val = Fraction(-acc, row[pc])
                else:
                    val = (-acc) * pow(row[pc], -1, field) % field
                if val:
                    x[pc] = val
        basis.append([x.get(j, 0) for j in range(matrix.ncols)])
    return basis

