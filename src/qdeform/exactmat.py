"""Dense matrices over the exact scalar ring (small dimensions only)."""

from __future__ import annotations

from .scalars import QExact

ExactMatrix = tuple[tuple[QExact, ...], ...]


def mat(rows) -> ExactMatrix:
    out = tuple(tuple(QExact._coerce(v) for v in row) for row in rows)
    width = {len(r) for r in out}
    if len(width) > 1:
        raise ValueError("ragged exact matrix")
    return out


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: ExactMatrix, s) -> ExactMatrix:
    s = QExact._coerce(s)
    return tuple(tuple(x * s for x in row) for row in a)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n, inner, m = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("shape mismatch in exact matmul")
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(inner)), QExact.zero())
            for j in range(m)
        )
        for i in range(n)
    )


def dagger(a: ExactMatrix) -> ExactMatrix:
    """Conjugate transpose; the deformation scalar itself is real."""
    n, m = len(a), len(a[0])
    return tuple(tuple(a[i][j].conj() for i in range(n)) for j in range(m))


def is_zero(a: ExactMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)
