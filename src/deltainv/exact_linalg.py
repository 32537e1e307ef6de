"""Exact linear algebra over the rationals and over prime fields.

Matrices are stored sparsely (one dict per row), and each row is normalised
once, when the matrix is built: over Q it becomes a primitive integer row,
over F_p each entry n/d (an int or a Fraction) becomes n * d^(-1) mod p.
Elimination is fraction-free and runs one row update, row <- mp * row -
mf * prow, reduced mod p over F_p and divided by its content over Q.
Pivots are chosen by a Markowitz-style count to limit fill-in, which keeps
the large structured kernels computed elsewhere in the library tractable.
Over Q every kernel vector is a primitive integer vector whose first nonzero
entry is positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(values):
    """The integer vector parallel to the rationals ``values``, with content
    1 and its first nonzero entry positive; a zero vector stays zero."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]


def _residue(v, p: int) -> int:
    """The rational ``v`` as an element of F_p."""
    if v.denominator % p == 0:
        raise ValueError(f"entry {v} has {p} in its denominator")
    return v.numerator * pow(v.denominator, -1, p) % p


class ExactMatrix:
    def __init__(self, rows, field: int | None = None, ncols: int | None = None):
        self.field = field
        if rows and isinstance(rows[0], dict):
            if ncols is None:
                raise ValueError("ncols is required for sparse input")
            self.ncols = ncols
        else:
            self.ncols = ncols if ncols is not None else (
                len(rows[0]) if rows else 0)
            rows = [dict(enumerate(row)) for row in rows]
        self.rows = []
        for row in rows:
            cols = [j for j, v in row.items() if v]
            if field is None:
                vals = _primitive(row[j] for j in cols)
            else:
                vals = [_residue(row[j], field) for j in cols]
            self.rows.append({j: v for j, v in zip(cols, vals) if v})


def _eliminate(matrix: ExactMatrix):
    """Sparse Gaussian elimination.

    Returns (pivots, rows) where pivots is the list of (column, row_index)
    in selection order and rows maps row_index to its final sparse content.
    """
    field = matrix.field
    rows = {i: dict(r) for i, r in enumerate(matrix.rows)}

    # column -> set of active row indices with a nonzero entry there
    col_rows: dict = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def drop(i, j):
        s = col_rows[j]
        s.discard(i)
        if not s:
            del col_rows[j]

    pivots = []
    while col_rows:
        # Markowitz pivot: sparsest column, then sparsest row in it
        pc = min(col_rows, key=lambda j: (len(col_rows[j]), j))
        pr = min(col_rows[pc], key=lambda i: len(rows[i]))
        pivots.append((pc, pr))
        prow = rows[pr]
        pval = prow[pc]
        for j in prow:
            drop(pr, j)
        for i in list(col_rows.get(pc, ())):
            row = rows[i]
            if field is None:
                g = gcd(pval, row[pc])
                mp, mf = pval // g, row[pc] // g
            else:
                mp, mf = 1, row[pc] * pow(pval, -1, field)
            if mp != 1:
                for j in row:
                    row[j] *= mp
            for j, v in prow.items():
                nv = row.get(j, 0) - mf * v
                if field is not None:
                    nv %= field
                if nv:
                    if j not in row:
                        col_rows.setdefault(j, set()).add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    drop(i, j)
            if field is None:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
    return pivots, rows


def rank(matrix: ExactMatrix) -> int:
    pivots, _ = _eliminate(matrix)
    return len(pivots)


def kernel_basis(matrix: ExactMatrix):
    """Basis of the right kernel, one vector per free column: primitive
    integer vectors over Q, residues over F_p."""
    pivots, rows = _eliminate(matrix)
    field = matrix.field
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for fc in range(matrix.ncols):
        if fc in pivot_cols:
            continue
        x = {fc: 1}
        for pc, pr in reversed(pivots):
            row = rows[pr]
            acc = sum(v * x[j] for j, v in row.items() if j != pc and j in x)
            if acc:
                x[pc] = Fraction(-acc, row[pc]) if field is None else \
                    -acc * pow(row[pc], -1, field) % field
        vec = [x.get(j, 0) for j in range(matrix.ncols)]
        basis.append(vec if field is not None else _primitive(vec))
    return basis
