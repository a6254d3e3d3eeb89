"""Least-squares polynomial smoothing, backed by a small Gauss solver.

The sweep experiments produce noisy-looking count curves (evaluation
counts are integers, so the mean over a function set is a step function of
the ratio ``c``).  A low-degree least-squares polynomial smooths such a
curve enough to read off where its minimum sits.  The fit is the textbook
normal-equations construction: power sums ``r_j = sum(x_i^j)`` fill the
symmetric normal matrix ``a[i][j] = r[i+j]``, the right-hand side is
``b_j = sum(y_i * x_i^j)``, and Gaussian elimination with partial pivoting
solves the system.

Abscissas are affinely rescaled to ``[-1, 1]`` before the power sums are
formed and the solved coefficients are mapped back afterwards — at degree
5 and abscissas like ``c in (0.01, 0.80)`` the raw normal matrix is badly
conditioned, the rescaled one is fine.  The rescaling is invisible to
callers.
"""

from __future__ import annotations

from .core import Point2, _Record


class SingularSystemError(ValueError):
    """The linear system (or the fit behind it) is rank-deficient."""


class Polynomial(_Record):
    """Dense polynomial; ``coefficients[k]`` multiplies ``x**k``."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[float, ...]) -> None:
        if len(coefficients) < 1:
            raise ValueError("a polynomial needs at least one coefficient")
        super().__init__(coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


class LinearSystem(_Record):
    """A square system ``matrix @ solution = rhs``."""

    __slots__ = ("matrix", "rhs")

    def __init__(self, matrix: tuple[tuple[float, ...], ...],
                 rhs: tuple[float, ...]) -> None:
        n = len(rhs)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square and agree with rhs length")
        super().__init__(matrix, rhs)


def gauss_solve(system: LinearSystem) -> list[float]:
    """Solve by Gaussian elimination with partial pivoting.

    Raises :class:`SingularSystemError` if the best available pivot in
    some column is exactly zero.
    """
    n = len(system.rhs)
    a = [list(row) for row in system.matrix]
    b = list(system.rhs)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        if a[pivot_row][col] == 0.0:
            raise SingularSystemError(f"zero pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            if factor == 0.0:
                continue
            for j in range(col, n):
                a[i][j] -= factor * a[col][j]
            b[i] -= factor * b[col]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def _convolve(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def fit_polynomial(points: list[Point2], degree: int) -> Polynomial:
    """Least-squares fit of a polynomial of the given degree.

    Requires strictly more than ``degree + 1`` points and at least
    ``degree + 1`` distinct abscissas (otherwise the normal matrix is
    singular and :class:`SingularSystemError` is raised).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n = len(points) - 1
    if degree >= n:
        raise ValueError(
            f"degree {degree} needs more than {degree + 1} points, got {len(points)}"
        )
    if len({p.x for p in points}) < degree + 1:
        raise SingularSystemError(
            f"need at least {degree + 1} distinct abscissas for degree {degree}"
        )

    lo = min(p.x for p in points)
    hi = max(p.x for p in points)
    scale = hi - lo
    if scale == 0.0:
        scale = 1.0
    # t = alpha*x + beta maps [lo, hi] onto [-1, 1].
    alpha = 2.0 / scale
    beta = -(lo + hi) / scale

    ts = [alpha * p.x + beta for p in points]
    ys = [p.y for p in points]
    r = [0.0] * (2 * degree + 1)
    for t in ts:
        power = 1.0
        for j in range(2 * degree + 1):
            r[j] += power
            power *= t
    rhs = [0.0] * (degree + 1)
    for t, y in zip(ts, ys):
        power = 1.0
        for j in range(degree + 1):
            rhs[j] += y * power
            power *= t
    matrix = tuple(
        tuple(r[i + j] for j in range(degree + 1)) for i in range(degree + 1)
    )
    scaled = gauss_solve(LinearSystem(matrix, tuple(rhs)))

    # Map q(t) back to x-space: substitute t = alpha*x + beta.
    coeffs = [0.0] * (degree + 1)
    base = [1.0]
    for c in scaled:
        for k, bk in enumerate(base):
            coeffs[k] += c * bk
        base = _convolve(base, [beta, alpha])
    return Polynomial(tuple(coeffs))
