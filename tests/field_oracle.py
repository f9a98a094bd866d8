"""Big-int Gauss–Jordan over ``F_p``: the one-matrix-at-a-time reference.

Plain Python ints and lists, row at a time, no numpy — deliberately nothing
like the stacked kernel in :mod:`repro.fieldmath.linalg` it checks.
"""

from __future__ import annotations


def oracle_inverse(p: int, matrix) -> list[list[int]] | None:
    """Inverse of a square matrix mod ``p``, or ``None`` when singular."""
    n = len(matrix)
    rows = [
        [int(v) % p for v in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], p - 2, p)
        rows[col] = [v * scale % p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]
