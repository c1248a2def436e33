"""Small exact/float linear algebra for non-negative integer matrices.

Matrices are tuples of row tuples.  The Perron eigenvector is computed
exactly (fractions) whenever the dominant eigenvalue is an integer, which
covers constant-length substitutions and odometer diagrams; otherwise a
float power iteration is used, certified by its residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    if any(len(row) != k for row in a):
        raise ConstructionError("matrix dimensions do not compose")
    m = len(b[0])
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def entrywise_positive(a: Matrix) -> bool:
    return all(x > 0 for row in a for x in row)


def column_sums(a: Matrix) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*a))


def positivity_exponent(a: Matrix, bound: int) -> int | None:
    """Least n <= bound with a^n entrywise positive, or None."""
    power = a
    for n in range(1, bound + 1):
        if entrywise_positive(power):
            return n
        power = mat_mul(power, a)
    return None


def fraction_nullspace_positive(rows: list[list[Fraction]]) -> tuple[Fraction, ...] | None:
    """A positive vector v with (rows) v = 0, normalised to sum 1, or None.

    Gaussian elimination over fractions; only a one-dimensional nullspace
    whose generator can be scaled entrywise positive qualifies.
    """
    if not rows:
        return None
    n = len(rows[0])
    rows = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if len(free_cols) != 1:
        return None
    free = free_cols[0]
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for i, c in enumerate(pivot_cols):
        v[c] = -rows[i][free]
    total = sum(v)
    if total == 0:
        return None
    v = [x / total for x in v]
    if any(x <= 0 for x in v):
        return None
    return tuple(v)


def _nullspace_positive(a: Matrix, lam: int) -> tuple[Fraction, ...] | None:
    n = len(a)
    rows = [
        [Fraction(a[i][j] - (lam if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    return fraction_nullspace_positive(rows)


@dataclass(frozen=True)
class PerronData:
    """Dominant eigenvalue and positive eigenvector (sum 1) of a matrix.

    `exact` marks the all-fractions path; float entries otherwise, with
    max-norm residual ||Av - value*v|| below `residual`.
    """

    value: object
    vector: tuple
    exact: bool
    residual: float


def perron(a: Matrix, residual_target: float = 1e-12, max_iter: int = 200_000) -> PerronData:
    """Perron eigendata of a non-negative matrix with a positive power.

    A rational eigenvalue of an integer matrix is an integer (monic integer
    characteristic polynomial), so scanning the integers between the column
    sum bounds finds every exact case; the rest fall back to power iteration.
    """
    n = len(a)
    sums = column_sums(a)
    lo, hi = min(sums), max(sums)
    for lam in range(lo, hi + 1):
        v = _nullspace_positive(a, lam)
        if v is not None:
            return PerronData(value=lam, vector=v, exact=True, residual=0.0)

    v = [1.0 / n] * n
    lam = float(hi)
    for _ in range(max_iter):
        w = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
        total = sum(w)
        if total == 0:
            raise ConstructionError("matrix is nilpotent on the positive cone")
        w = [x / total for x in w]
        lam = total  # since sum(v) == 1
        res = max(
            abs(sum(a[i][j] * w[j] for j in range(n)) - lam * w[i]) for i in range(n)
        )
        v = w
        if res < residual_target:
            return PerronData(value=lam, vector=tuple(v), exact=False, residual=res)
    raise ConstructionError(f"power iteration failed to reach residual {residual_target}")
