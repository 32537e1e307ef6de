"""Exact linear algebra over the rationals and over prime fields.

Matrices are stored sparsely (one dict per row), and each row is normalised
once, when the matrix is built: over Q it becomes a primitive integer row,
over F_p each entry n/d (an int or a Fraction) becomes n * d^(-1) mod p.
Elimination is fraction-free and runs one row update, row <- mp * row -
mf * prow, reduced mod p over F_p and divided by its content over Q.
Columns are taken in one order fixed before elimination, sparsest first,
and each pivots on the shortest row with an entry there, to limit fill-in.
Over Q every kernel vector is a primitive integer vector whose first nonzero
entry is positive.  ``inverse`` inverts a small dense matrix by Gauss-Jordan
elimination on [M | 1].
"""

from __future__ import annotations

from collections import Counter
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
    """Sparse fraction-free elimination in one column order, fixed up front:
    columns by how many rows have an entry there, then by index.  Each column
    pivots on the shortest remaining row with an entry in it; a column with
    no such row is skipped.

    Returns (columns, rows): the pivot columns in elimination order, and the
    final sparse content of each one's pivot row.
    """
    field = matrix.field
    rows = dict(enumerate(dict(row) for row in matrix.rows))
    count = Counter(j for row in rows.values() for j in row)
    columns, pivot_rows = [], []
    for pc in sorted(count, key=lambda j: (count[j], j)):
        live = [i for i, row in rows.items() if pc in row]
        if not live:
            continue
        pr = min(live, key=lambda i: len(rows[i]))
        live.remove(pr)
        prow = rows.pop(pr)
        columns.append(pc)
        pivot_rows.append(prow)
        pval = prow[pc]
        pinv = None if field is None else pow(pval, -1, field)
        for i in live:
            row = rows[i]
            if field is None:
                g = gcd(pval, row[pc])
                mp, mf = pval // g, row[pc] // g
            else:
                mp, mf = 1, row[pc] * pinv % field
            if mp != 1:
                for j in row:
                    row[j] *= mp
            for j, v in prow.items():
                nv = row.get(j, 0) - mf * v
                if field is not None:
                    nv %= field
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
            if not row:
                del rows[i]
            elif field is None:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
    return columns, pivot_rows


def inverse(M, field: int | None = None):
    """The inverse of the square matrix M (rows of ints or Fractions), by
    Gauss-Jordan elimination on [M | 1]: Fractions over Q, residues over F_p.
    Raises ``ZeroDivisionError`` when M is singular."""
    n = len(M)
    red = (lambda v: v) if field is None else (lambda v: v % field)
    rows = [[Fraction(v) if field is None else _residue(v, field) for v in row]
            + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            raise ZeroDivisionError("matrix is singular")
        inv = 1 / rows[pr][c] if field is None else pow(rows[pr][c], -1, field)
        pivot = [red(v * inv) for v in rows[pr]]
        rows[pr] = rows[c]
        rows = [pivot if i == c else row if not row[c] else
                [red(a - row[c] * b) for a, b in zip(row, pivot)]
                for i, row in enumerate(rows)]
    return [row[n:] for row in rows]


def rank(matrix: ExactMatrix) -> int:
    return len(_eliminate(matrix)[0])


def kernel_basis(matrix: ExactMatrix):
    """Basis of the right kernel, one vector per free column: primitive
    integer vectors over Q, residues over F_p."""
    columns, pivot_rows = _eliminate(matrix)
    field = matrix.field
    basis = []
    for fc in sorted(set(range(matrix.ncols)) - set(columns)):
        x = {fc: 1}
        for pc, row in zip(reversed(columns), reversed(pivot_rows)):
            acc = sum(v * x[j] for j, v in row.items() if j != pc and j in x)
            if acc:
                x[pc] = Fraction(-acc, row[pc]) if field is None else \
                    -acc * pow(row[pc], -1, field) % field
        vec = [x.get(j, 0) for j in range(matrix.ncols)]
        basis.append(vec if field is not None else _primitive(vec))
    return basis
