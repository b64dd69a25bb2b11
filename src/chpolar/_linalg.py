"""The linear-algebra kernel: every SVD, and so every rank, null-space and
singular-value decision (``kahler``'s Kahler angles are singular values).

Matrices are real, one vector per row; ``singular_rows``,
``orthonormal_rows`` and ``complement_rows`` also take complex rows,
orthonormal then in the Hermitian product (complex vectors are otherwise
real rows, ``real_rows``, viewed back with ``complex_rows``).  There is
one zero, ``TOL_RANK``: a singular value counts toward the rank when it
exceeds ``TOL_RANK * max(1, s_0)``, ``s_0`` the largest one
(``_rank_of``); ``kahler``'s membership tests read the same bound, so a
vector that close to a span adds no direction anywhere.  The cutoff is absolute below scale 1, so unit data
projected to numerical zero (h inside k, [h_o, xi] = 0) keeps rank 0.
Scale-free answers come from the inputs: spanning sets from outside pass
through ``unit_rows``, and every other matrix is built from orthonormal rows.
"""

from __future__ import annotations

import math

import numpy as np

TOL_RANK = 1e-8  # the one rank cutoff and membership bound


class ConsistencyError(RuntimeError):
    """Two independently computed quantities that must agree did not."""


def real_rows(stack):
    """A stack of complex matrices or vectors as real rows, (re, im)
    interleaved, so that Re tr(A* B) (Re<u, v> for vectors) is the dot
    product of two rows."""
    stack = np.ascontiguousarray(stack, dtype=complex)
    return stack.reshape(len(stack), math.prod(stack.shape[1:])).view(float)


def complex_rows(rows, m):
    """Real rows (re, im interleaved) viewed back as complex vectors of C^m."""
    return np.ascontiguousarray(rows).view(complex).reshape(len(rows), m)


def _rank_of(s):
    """The rank rule on singular values in decreasing order."""
    return int(np.sum(s > TOL_RANK * max(1.0, s[0]))) if s.size else 0


def unit_rows(A):
    """The nonzero rows of A, each scaled to unit norm: the same span, with
    the scale of the input gone.  A is read as real (complex input is cast,
    so pass complex vectors as their real rows).

    Each row is first scaled by the power of two nearest its largest
    entry, so the squares inside the norm neither underflow nor overflow
    (a row of 1e-300 keeps its direction).  Scaling by a power of two is
    exact, so rows whose norm is representable give the same bits as
    without it."""
    A = np.asarray(A, dtype=float)
    _, exp = np.frexp(np.abs(A).max(axis=1, initial=0.0))
    A = np.ldexp(A, -exp[:, None])
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 0.0
    return A[keep] / norms[keep, None]


def scaled_norm(inner, X):
    """sqrt(inner(X, X)) for a real-bilinear inner product on complex
    arrays, with X first scaled by the power of two nearest its largest
    entry, so that the square neither underflows nor overflows (an X of
    1e-200 keeps its norm).  Scaling by a power of two is exact, so an X
    whose square is representable gives the same bits as without it."""
    r = np.ascontiguousarray(X, dtype=complex).view(float)
    _, exp = np.frexp(np.abs(r).max(initial=0.0))
    scaled = np.ldexp(r, -exp).view(complex)
    return float(np.ldexp(np.sqrt(max(0.0, inner(scaled, scaled))), exp))


def orthonormal_rows(A):
    """Orthonormal rows spanning the rows of A (its leading right singular
    vectors).  For complex A they span the complex row space and are
    orthonormal in the Hermitian product."""
    s, vh = singular_rows(A)
    return vh[: _rank_of(s)]


def singular_rows(A):
    """The singular values of A, decreasing, and its right singular vectors as rows."""
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return s, vh


def rank(A):
    """Rank of A under the rank rule; 0 for an empty matrix."""
    return _rank_of(np.linalg.svd(A, compute_uv=False))


def left_nullspace(A):
    """Orthonormal rows c with c @ A = 0, one coefficient per row of A,
    under the rank rule."""
    _, s, vh = np.linalg.svd(A.T, full_matrices=True)
    return vh[_rank_of(s):]


def complement_rows(rows, dim):
    """Orthonormal rows spanning the orthogonal complement of the
    orthonormal rows ``rows`` in R^dim, or in C^dim for complex rows (the
    complete QR works on either; together the rows form a unitary matrix)."""
    if not rows.size:
        return np.eye(dim)
    q, _ = np.linalg.qr(rows.T, mode="complete")
    return q[:, rows.shape[0]:].T


def generic_draws(rng, basis, act):
    """The regular-vector sampler: two unit combinations xi of the
    orthonormal rows ``basis``, their coefficients ``rng.gauss(0.0, 1.0)``
    draws of a ``random.Random`` in stream order, as (xi, rank, rows) with
    the rows ``act(xi)``.  A Gaussian draw is regular with probability 1,
    so two draws of different rank raise ConsistencyError."""
    draws = []
    for _ in range(2):
        coeff = np.array([rng.gauss(0.0, 1.0) for _ in range(basis.shape[0])])
        xi = (coeff / np.linalg.norm(coeff)) @ basis
        moved = act(xi)
        draws.append((xi, rank(moved), moved))
    (_, d1, _), (_, d2, _) = draws
    if d1 != d2:
        raise ConsistencyError(f"two generic draws give ranks {d1} and {d2}")
    return draws
