"""Left-invariant geometry of the solvable model AN of complex hyperbolic space.

A vector aB + U + xZ of a + n = a + g_a + g_2a is the vector

    z = (a + i x, u)  of C^n,

u in C^{n-1} identified with g_a, and a set of them is a (k, n) stack.
This is an isometry for the AN metric, which is Euclidean in the model,

    <(a, u, x), (b, v, y)>_AN = a b + Re<u, v> + x y = Re<z, w>,

and the complex structure J (J B = Z, J U = iU on g_a) is multiplication
by i.  The Lie bracket keeps the structure constant <J U, V> of the
ambient algebra's metric, which is twice the AN one on g_a:

    [aB + U + xZ, bB + V + yZ]
        = -(b/2) U + (a/2) V + (-bx + ay + Re<iu, v>) Z.

The Levi-Civita connection below is the unique torsion-free metric
connection for this data; the resulting space has constant holomorphic
sectional curvature -1.
"""

from __future__ import annotations

import numpy as np

from ._linalg import orthonormal_rows, real_rows, scaled_norm
from .su1n import build_root_decomposition, galpha_matrices


def an_vector(a, u, x):
    """The vector aB + U + xZ, U given by u in C^{n-1}: z = (a + ix, u)."""
    return np.concatenate([[complex(a, x)], np.asarray(u, dtype=complex).reshape(-1)])


def an_json(X):
    """X as the JSON {"a_part": a, "u_part": [[Re u_j, Im u_j], ...], "z_part": x}."""
    return {"a_part": float(X[0].real), "u_part": [[float(z.real), float(z.imag)] for z in X[1:]],
            "z_part": float(X[0].imag)}


def an_matrix(X):
    """The element Re z_0 B + X(u)/2 + Im z_0 Z of su(1, n) that X names."""
    rd = build_root_decomposition(len(X))
    return X[0].real * rd.B + galpha_matrices(X[None, 1:])[0] + X[0].imag * rd.Z


def inner_product(X, Y):
    """The AN metric: Re<X, Y>, the real part of the Hermitian product."""
    return X[0].real * Y[0].real + float(np.real(np.vdot(Y[1:], X[1:]))) + X[0].imag * Y[0].imag


def norm(X):
    """|X| in the AN metric, at any scale of X (``scaled_norm``)."""
    return scaled_norm(inner_product, X)


def complex_structure(X):
    """J on a + n: B -> Z, Z -> -B, u -> i u."""
    return 1j * X


def an_bracket(X, Y):
    """Lie bracket of a + n (Heisenberg extension of the real line a)."""
    _same_model(X, Y)
    a, b = X[0].real, Y[0].real
    x, y = X[0].imag, Y[0].imag
    zcoef = -b * x + a * y + float(np.real(np.vdot(Y[1:], 1j * X[1:])))
    return an_vector(0.0, -0.5 * b * X[1:] + 0.5 * a * Y[1:], zcoef)


def levi_civita(X, Y):
    """Levi-Civita connection of AN on left-invariant fields:

    grad_{aB+U+xZ}(bB+V+yZ) = ((1/2)<U,V> + xy) B
                              - (1/2)(b U + y JU + x JV)
                              + ((1/2)<JU,V> - bx) Z,

    with all inner products in the AN metric.
    """
    _same_model(X, Y)
    a, b = X[0].real, Y[0].real
    x, y = X[0].imag, Y[0].imag
    U, V = X[1:], Y[1:]
    uv = float(np.real(np.vdot(V, U)))
    juv = float(np.real(np.vdot(V, 1j * U)))
    return an_vector(
        0.5 * uv + x * y,
        -0.5 * (b * U + y * (1j * U) + x * (1j * V)),
        0.5 * juv - b * x,
    )


def curvature_operator(X, Y, Z):
    """R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z."""
    return (
        levi_civita(X, levi_civita(Y, Z))
        - levi_civita(Y, levi_civita(X, Z))
        - levi_civita(an_bracket(X, Y), Z)
    )


def curvature(X, Y, Z, W):
    """<R(X, Y)Z, W> in the AN metric."""
    return inner_product(curvature_operator(X, Y, Z), W)


def sectional_curvature(X, Y):
    lengths = inner_product(X, X) * inner_product(Y, Y)
    denom = lengths - inner_product(X, Y) ** 2
    if denom <= 1e-14 * lengths:  # relative, so that X and Y may have any scale
        raise ValueError("vectors do not span a plane")
    return curvature(X, Y, Y, X) / denom


def holomorphic_sectional_curvature(X):
    return sectional_curvature(X, complex_structure(X))


def _same_model(X, Y):
    if X.shape != Y.shape:
        raise ValueError("vectors belong to different models")


class OrbitModel:
    """An orbit of a subgroup of AN through the base point, represented by
    its tangent subalgebra inside a + n.

    ``tangent`` is an AN-orthonormal (k, n) stack and ``normal`` spans its
    AN-orthogonal complement in a + n.  ``from_flag`` builds the flag type
    b + w + g_2a, b either 0 or all of a; ``b_flag`` names it, and is None
    for any other tangent.  Only the inputs are checked: tests/test_angeom.py
    asserts that the flag and line types are subalgebras ([a, n] <= n,
    [g_a, g_a] <= g_2a) and that the stacks fill a + n.
    """

    def __init__(self, n, tangent, b_flag=None):
        self.n = int(n)
        self.b_flag = b_flag
        self.tangent = np.array(tangent, dtype=complex)
        T = real_rows(self.tangent)
        gram_err = np.abs(T @ T.T - np.eye(len(T))).max()
        if gram_err > 1e-9:
            raise ValueError(
                f"tangent basis failed to orthonormalize (max |G - 1| = {gram_err:.3g} > 1e-9)"
            )
        normal = orthonormal_rows(np.eye(2 * self.n) - T.T @ T)
        self.normal = np.ascontiguousarray(normal).view(complex)

    @classmethod
    def from_flag(cls, n, b_flag, w_basis=()):
        """Orbit with tangent b + w + g_2a, b_flag in {'zero', 'full'}."""
        if b_flag not in ("zero", "full"):
            raise ValueError("b_flag must be 'zero' or 'full'")
        w_rows = [np.asarray(b, dtype=complex).reshape(-1) for b in w_basis]
        if any(r.shape != (n - 1,) for r in w_rows):
            raise ValueError("g_a data must live in C^{n-1}")
        zeros = np.zeros(n - 1, dtype=complex)
        lead = [an_vector(1.0, zeros, 0.0)] if b_flag == "full" else []
        w_part = [an_vector(0.0, r, 0.0) for r in w_rows]
        return cls(n, lead + w_part + [an_vector(0.0, zeros, 1.0)], b_flag)

    def project_tangent(self, X):
        T = real_rows(self.tangent)
        return (real_rows(X[None]) @ T.T @ T).view(complex)[0]


def shape_operator(orbit, xi):
    """Matrix of S_xi = -(grad_. xi)^T in the orbit's orthonormal tangent
    basis: S[i, j] = <t_i, -grad_{t_j} xi>.

    xi must be a unit normal vector.  S is symmetric: <S_xi X, Y> is
    <grad_X Y, xi>, and grad_X Y - grad_Y X = [X, Y] is tangent
    (tests/test_angeom.py asserts it)."""
    off_unit = abs(norm(xi) - 1.0)
    if off_unit > 1e-9:
        raise ValueError(
            f"shape operator needs a unit normal vector (||xi| - 1| = {off_unit:.3g} > 1e-09)")
    tangential = norm(orbit.project_tangent(xi))
    if tangential > 1e-9:
        raise ValueError(
            f"vector is not normal to the orbit (tangential part {tangential:.3g} > 1e-09)")
    cols = np.array([-levi_civita(t, xi) for t in orbit.tangent])
    return real_rows(orbit.tangent) @ real_rows(cols).T


def mean_curvature(orbit):
    """Mean curvature vector: sum over an orthonormal normal basis of
    tr(S_eta) eta.  Computed numerically from shape operators."""
    traces = np.array([np.trace(shape_operator(orbit, eta)) for eta in orbit.normal])
    return traces @ orbit.normal


def mean_curvature_closed_form(orbit):
    """The closed-form mean curvature of a flag orbit (``from_flag``):

    - tangent a + w + g_2a: 0,
    - tangent w + g_2a: (1/2)(2 + dim w) B.
    """
    if orbit.b_flag is None:
        raise ValueError("the closed form covers the flag orbits of from_flag only")
    zeros = np.zeros(orbit.n - 1, dtype=complex)
    if orbit.b_flag == "full":
        return an_vector(0.0, zeros, 0.0)
    dim_w = len(orbit.tangent) - 1  # the tangent is w + g_2a
    return an_vector(0.5 * (2 + dim_w), zeros, 0.0)
