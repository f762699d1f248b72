"""Exact decisions on lambda, the top eigenvalue of a Metzler matrix M, in rational arithmetic.

For real t, tI - M is a Z-matrix, and it is a nonsingular M-matrix exactly when t > lambda;
a Z-matrix is one exactly when all its leading principal minors are positive (Berman &
Plemmons, *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).  Fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) gives those minors as its pivots, in integers.
Every float is an exact rational, so each decision is free of rounding, symmetric M or not.
Standard library only: integers and ``fractions``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _minors_positive(rows: list[list[Fraction]]) -> bool:
    """Whether every leading principal minor of the square rational matrix ``rows`` is positive."""
    scale = lcm(*(x.denominator for row in rows for x in row))  # a positive scale keeps each sign
    a = [[int(x * scale) for x in row] for row in rows]
    previous = 1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]  # the leading minor of order k + 1, times scale^(k + 1)
        if pivot <= 0:
            return False
        for row in a[k + 1:]:
            factor = row[k]
            row[k + 1:] = [(pivot * x - factor * y) // previous for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        previous = pivot
    return True


def _negated(m) -> list[list[Fraction]]:
    """-m as Fractions, the off-diagonal of tI - m; an off-diagonal m_ij < 0 raises ValueError."""
    rows = [[-Fraction(float(x)) for x in row] for row in m]
    if any(x > 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j):
        raise ValueError("not a Metzler matrix: an off-diagonal entry is negative")
    return rows


def below(off, row_sums, t) -> bool:
    """Whether lambda < t on the row-sum model: the float off-diagonal entries of ``off`` (its
    diagonal is not read) and the float row sums ``row_sums`` (the potential V), the diagonal
    V_i - sum_{j != i} off_ij formed exactly."""
    t, rows = Fraction(t), _negated(off)
    for i, row in enumerate(rows):
        row[i] = t - Fraction(float(row_sums[i])) - sum(row[:i]) - sum(row[i + 1:])
    return _minors_positive(rows)


def below_matrix(m, t) -> bool:
    """Whether lambda < t on the assembled float matrix ``m``, its float diagonal as it stands."""
    t, rows = Fraction(t), _negated(m)
    for i, row in enumerate(rows):
        row[i] += t
    return _minors_positive(rows)


def brackets(decide, estimate, r) -> bool:
    """Whether the exact lambda lies in [estimate - r |estimate|, estimate + r |estimate|), by two
    calls of ``decide`` (t -> whether lambda < t), ``estimate`` and the relative ``r`` as exact
    rationals."""
    estimate, r = Fraction(estimate), Fraction(r)
    return decide(estimate + r * abs(estimate)) and not decide(estimate - r * abs(estimate))
