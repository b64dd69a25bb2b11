"""Left-invariant geometry of the solvable model AN of complex hyperbolic space.

Vectors live in the coordinate model a + g_a + g_2a: a scalar multiple of
the unit vector B, a vector u in C^{n-1} identified with g_a (the complex
structure is multiplication by i), and a scalar multiple of Z = J B.  The
metric used throughout this module is the AN metric, under which the model
is Euclidean:

    <(a, u, x), (b, v, y)>_AN = a b + Re<u, v> + x y.

The Lie bracket keeps the structure constant <J U, V> of the ambient
algebra's metric, which is twice the AN one on g_a:

    [aB + U + xZ, bB + V + yZ]
        = -(b/2) U + (a/2) V + (-bx + ay + Re<iu, v>) Z.

The Levi-Civita connection below is the unique torsion-free metric
connection for this data; the resulting space has constant holomorphic
sectional curvature -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import left_nullspace, orthonormal_rows, unit_rows
from .su1n import ConsistencyError, ad_exp, bracket, build_root_decomposition, galpha_matrices


@dataclass(frozen=True)
class ANVector:
    """Element a B + U + x Z of a + g_a + g_2a, with U given by u in C^{n-1}."""

    a: float
    u: np.ndarray = field(repr=False)
    x: float

    def __init__(self, a, u, x):
        u = np.asarray(u, dtype=complex).reshape(-1)
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", float(x))

    @property
    def n(self):
        return self.u.shape[0] + 1

    def __add__(self, other):
        return ANVector(self.a + other.a, self.u + other.u, self.x + other.x)

    def __sub__(self, other):
        return ANVector(self.a - other.a, self.u - other.u, self.x - other.x)

    def __rmul__(self, t):
        t = float(t)
        return ANVector(t * self.a, t * self.u, t * self.x)

    def __neg__(self):
        return ANVector(-self.a, -self.u, -self.x)

    def to_real(self):
        """Coordinates (a, Re u_1, Im u_1, ..., x) in which the AN metric is
        the standard Euclidean one."""
        out = np.empty(2 * self.n)
        out[0] = self.a
        out[1:-1:2] = self.u.real
        out[2:-1:2] = self.u.imag
        out[-1] = self.x
        return out

    @classmethod
    def from_real(cls, v):
        v = np.asarray(v, dtype=float).reshape(-1)
        return cls(v[0], v[1:-1:2] + 1j * v[2:-1:2], v[-1])

    @classmethod
    def basis_B(cls, n):
        return cls(1.0, np.zeros(n - 1, dtype=complex), 0.0)

    @classmethod
    def basis_Z(cls, n):
        return cls(0.0, np.zeros(n - 1, dtype=complex), 1.0)

    @classmethod
    def from_galpha(cls, u):
        u = np.asarray(u, dtype=complex).reshape(-1)
        return cls(0.0, u, 0.0)

    def to_json(self):
        return {
            "a_part": self.a,
            "u_part": [[float(z.real), float(z.imag)] for z in self.u],
            "z_part": self.x,
        }

    @classmethod
    def from_json(cls, data):
        u = np.array([complex(re, im) for re, im in data["u_part"]])
        return cls(data["a_part"], u, data["z_part"])


def inner_product(X, Y):
    """The AN metric."""
    return X.a * Y.a + float(np.real(np.vdot(Y.u, X.u))) + X.x * Y.x


def norm(X):
    return float(np.sqrt(max(0.0, inner_product(X, X))))


def complex_structure(X):
    """J on a + n: B -> Z, Z -> -B, u -> i u."""
    return ANVector(-X.x, 1j * X.u, X.a)


def an_bracket(X, Y):
    """Lie bracket of a + n (Heisenberg extension of the real line a)."""
    _same_model(X, Y)
    a, b = X.a, Y.a
    x, y = X.x, Y.x
    zcoef = -b * x + a * y + float(np.real(np.vdot(Y.u, 1j * X.u)))
    return ANVector(0.0, -0.5 * b * X.u + 0.5 * a * Y.u, zcoef)


def levi_civita(X, Y):
    """Levi-Civita connection of AN on left-invariant fields:

    grad_{aB+U+xZ}(bB+V+yZ) = ((1/2)<U,V> + xy) B
                              - (1/2)(b U + y JU + x JV)
                              + ((1/2)<JU,V> - bx) Z,

    with all inner products in the AN metric.
    """
    _same_model(X, Y)
    a, b = X.a, Y.a
    x, y = X.x, Y.x
    uv = float(np.real(np.vdot(Y.u, X.u)))
    juv = float(np.real(np.vdot(Y.u, 1j * X.u)))
    return ANVector(
        0.5 * uv + x * y,
        -0.5 * (b * X.u + y * (1j * X.u) + x * (1j * Y.u)),
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
    denom = inner_product(X, X) * inner_product(Y, Y) - inner_product(X, Y) ** 2
    if denom <= 1e-14:
        raise ValueError("vectors do not span a plane")
    return curvature(X, Y, Y, X) / denom


def holomorphic_sectional_curvature(X):
    return sectional_curvature(X, complex_structure(X))


def _same_model(X, Y):
    if X.u.shape != Y.u.shape:
        raise ValueError("vectors belong to different models")


class OrbitModel:
    """An orbit of a family-II type subgroup through the base point,
    represented by its tangent subalgebra inside a + n.

    Two supported tangent shapes:

    - line type:  R(aB + X) + w + g_2a   with X in g_a orthogonal to w,
    - flag type:  b + w + g_2a           with b either 0 or all of a.

    ``normal`` is the AN-orthogonal complement of the tangent in a + n.
    """

    def __init__(self, n, kind, a, x_vec, w_basis):
        if kind not in ("line", "flag_zero", "flag_full"):
            raise ValueError(f"unsupported tangent shape {kind!r}")
        self.n = int(n)
        self.kind = kind
        self.a = float(a)
        self.x_vec = np.asarray(x_vec, dtype=complex).reshape(-1)
        w_rows = [np.asarray(b, dtype=complex).reshape(-1) for b in w_basis]
        if any(r.shape != (self.n - 1,) for r in w_rows) or self.x_vec.shape != (self.n - 1,):
            raise ValueError("g_a data must live in C^{n-1}")
        x_norm = np.linalg.norm(self.x_vec)
        for r in w_rows:  # relative, so that X and w may have any scale
            if abs(np.real(np.vdot(r, self.x_vec))) > 1e-9 * np.linalg.norm(r) * x_norm:
                raise ValueError("X must be orthogonal to w")
        self.w_basis = w_rows

        tangent = []
        if kind == "line":
            lead = ANVector(self.a, self.x_vec, 0.0)
            if norm(lead) == 0.0:
                raise ValueError("line-type orbit needs aB + X nonzero")
            tangent.append((1.0 / norm(lead)) * lead)
        elif kind == "flag_full":
            tangent.append(ANVector.basis_B(self.n))
        for r in w_rows:
            tangent.append(ANVector.from_galpha(r))
        tangent.append(ANVector.basis_Z(self.n))
        self.tangent = tangent
        T = np.array([t.to_real() for t in tangent])
        gram = T @ T.T
        gram_err = np.abs(gram - np.eye(len(tangent))).max()
        if gram_err > 1e-9:
            raise ValueError(
                f"tangent basis failed to orthonormalize (max |G - 1| = {gram_err:.3g} > 1e-9)"
            )
        # normal: AN-orthogonal complement inside a + n
        full = np.eye(2 * self.n)
        proj = full - T.T @ T
        self.normal = [ANVector.from_real(r) for r in orthonormal_rows(proj, 1e-9)]
        if len(self.normal) + len(self.tangent) != 2 * self.n:
            raise ConsistencyError("tangent and normal do not fill a + n")
        self._check_subalgebra()

    @classmethod
    def from_line(cls, n, a, x_vec, w_basis=()):
        """Orbit with tangent R(aB + X) + w + g_2a."""
        return cls(n, "line", a, x_vec, w_basis)

    @classmethod
    def from_flag(cls, n, b_flag, w_basis=()):
        """Orbit with tangent b + w + g_2a, b_flag in {'zero', 'full'}."""
        if b_flag not in ("zero", "full"):
            raise ValueError("b_flag must be 'zero' or 'full'")
        zeros = np.zeros((n - 1,), dtype=complex)
        return cls(n, "flag_" + b_flag, 0.0, zeros, w_basis)

    @property
    def dim_w(self):
        return len(self.w_basis)

    def project_tangent(self, X):
        coeffs = [inner_product(X, t) for t in self.tangent]
        out = ANVector(0.0, np.zeros(self.n - 1, dtype=complex), 0.0)
        for c, t in zip(coeffs, self.tangent):
            out = out + c * t
        return out

    def _check_subalgebra(self, tol=1e-10):
        for i, s in enumerate(self.tangent):
            for t in self.tangent[i:]:
                br = an_bracket(s, t)
                resid = norm(br - self.project_tangent(br))
                if resid > tol:
                    raise ValueError(
                        f"tangent space is not a subalgebra of a + n "
                        f"(bracket part outside {resid:.3g} > {tol:g})"
                    )


def shape_operator(orbit, xi, tol=1e-9):
    """Matrix of S_xi = -(grad_. xi)^T in the orbit's orthonormal tangent basis.

    xi must be a unit normal vector; the result is symmetric (checked)."""
    off_unit = abs(norm(xi) - 1.0)
    if off_unit > tol:
        raise ValueError(
            f"shape operator needs a unit normal vector (||xi| - 1| = {off_unit:.3g} > {tol:g})")
    tangential = norm(orbit.project_tangent(xi))
    if tangential > tol:
        raise ValueError(
            f"vector is not normal to the orbit (tangential part {tangential:.3g} > {tol:g})")
    k = len(orbit.tangent)
    S = np.empty((k, k))
    for j, t in enumerate(orbit.tangent):
        col = -1.0 * levi_civita(t, xi)
        colT = orbit.project_tangent(col)
        for i, s in enumerate(orbit.tangent):
            S[i, j] = inner_product(colT, s)
    asym = np.abs(S - S.T).max()
    if asym > 1e-9:
        raise ConsistencyError(
            f"shape operator is not self-adjoint (max |S - S^T| = {asym:.3g} > 1e-9)")
    return S


def mean_curvature(orbit):
    """Mean curvature vector: sum over an orthonormal normal basis of
    tr(S_eta) eta.  Computed numerically from shape operators."""
    out = ANVector(0.0, np.zeros(orbit.n - 1, dtype=complex), 0.0)
    for eta in orbit.normal:
        out = out + float(np.trace(shape_operator(orbit, eta))) * eta
    return out


def mean_curvature_closed_form(orbit):
    """The closed-form mean curvature of the supported orbit shapes:

    - tangent R(aB + X) + w + g_2a:
          (3 + dim w) / (2 (a^2 + |X|^2)) (|X|^2 B - a X),
    - tangent a + w + g_2a: 0,
    - tangent w + g_2a: (1/2)(2 + dim w) B.
    """
    n, m = orbit.n, orbit.dim_w
    zeros = np.zeros(n - 1, dtype=complex)
    if orbit.kind == "flag_full":
        return ANVector(0.0, zeros, 0.0)
    if orbit.kind == "flag_zero":
        return ANVector(0.5 * (2 + m), zeros, 0.0)
    a = orbit.a
    xsq = float(np.real(np.vdot(orbit.x_vec, orbit.x_vec)))
    coef = (3 + m) / (2 * (a * a + xsq))
    return ANVector(coef * xsq, -coef * a * orbit.x_vec, 0.0)


# -- operations that live in the ambient matrix model ----------------------


def isotropy_at(n, q_basis, xi):
    """Isotropy subalgebra at the point Exp(lambda xi)(o): q cut down to
    ker ad(xi).

    q_basis holds skew-Hermitian matrices acting on C^{n-1} (embedded in
    k_0 by ``k0_matrix``) and xi is a vector of C^{n-1} ~ g_a.  Returns an
    orthonormal basis of {T in span(q) : [T, xi] = 0} as a (k, n+1, n+1)
    stack, (0, n+1, n+1) when it is zero.  Neither the scale of q nor that
    of xi changes the answer.
    """
    rd = build_root_decomposition(n)
    if not len(q_basis):
        return np.zeros((0, n + 1, n + 1), dtype=complex)
    q = np.array([rd.k0_matrix(N) for N in q_basis])
    q_rows = orthonormal_rows(unit_rows(rd.coords_many(q)))
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape != (n - 1,):
        raise ValueError(f"expected vector in C^{n - 1}")
    xi_c = rd.coords_many(galpha_matrices(xi[None]))[0]
    if not xi_c.any():
        return rd.from_coords_many(q_rows)  # every T fixes xi = 0
    xi_m = rd.from_coords_many(xi_c / np.linalg.norm(xi_c))[0]
    moved = rd.coords_many(bracket(xi_m, rd.from_coords_many(q_rows)))  # [xi, T]
    return rd.from_coords_many(left_nullspace(moved) @ q_rows)


def conjugate_subalgebra(n, h_basis, g_exponent, tol=1e-9):
    """Push a subalgebra h of k_0 + a + n, a (k, n+1, n+1) stack, forward
    by Ad(exp(g_exponent)).

    g_exponent is an ANVector.  The image is re-orthonormalized, returned
    as a stack, and checked to stay inside k_0 + a + n (it must, since AN
    normalizes the parabolic subalgebra); a part outside above tol relative
    to |X| raises ConsistencyError.
    """
    rd = build_root_decomposition(n)
    if not len(h_basis):
        return np.zeros((0, n + 1, n + 1), dtype=complex)
    g_mat = (
        g_exponent.a * rd.B
        + galpha_matrices(g_exponent.u[None])[0]
        + g_exponent.x * rd.Z
    )
    rows = unit_rows(rd.coords_many(np.asarray(h_basis)))
    rows = orthonormal_rows(rows @ ad_exp(g_mat).T, 1e-12)
    # g_{-2a} + g_{-a} is the leading run of coordinates, before k_0
    outside = np.linalg.norm(rows[:, :rd.slices["k_0"].start], axis=1)
    part = (outside / np.linalg.norm(rows, axis=1)).max(initial=0.0)
    if part > tol:
        raise ConsistencyError(f"conjugated algebra left k_0 + a + n "
                               f"(part outside / |X| = {part:.3g} > {tol:g})")
    return rd.from_coords_many(rows)
