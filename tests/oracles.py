"""Test oracles: constructions the tests check the package against and that
no command of the CLI reaches.

- ``ad`` and ``ad_exp``: ad(X) and Ad(exp X) as matrices on su(1, n) in
  the root-space orthonormal basis; ``ad_exp`` is the one user of scipy.
- ``isotropy_at`` and ``conjugate_subalgebra``: isotropy algebras at points
  off the base, and subalgebras pushed forward by Ad(exp X).
- ``LineOrbit``: the orbit of tangent R(aB + X) + w + g_2a as an
  ``angeom.OrbitModel``, with its closed-form mean curvature.
- ``build_action``: a spec's (n, h, sigma), the arguments of
  ``polar.check_polarity``; ``with_q_basis``: a spec with its named q
  spelled out as q_basis; ``sample_ranks``: the multi-draw sampler, the
  reference for ``_linalg.generic_draws``; ``regular_vectors``: the
  regular-vector flags.
- ``same_matrix_span``: whether two orthonormal stacks of u(m) span one
  space (``compare`` tests orbit tangents instead); ``u_frame_apply``: the
  products of the whole orthonormal frame of u(m) with vectors, the
  reference for the closed form of ``polar._UFrame``.
- ``project``, ``contains``, ``same_span``, ``kahler_angle``,
  ``complex_span``, ``random_subspace`` and ``normalizer_dimension_formula``:
  queries and constructions on ``kahler.RealSubspace``.
- ``normalizer_nullspace``: the normalizer of a real subspace as an SVD
  null space, the numerical oracle of ``kahler.normalizer_algebra`` (the
  closed form, the one normalizer the package builds).
- ``normalizer_section_oracle``: the section of the named normalizer read
  off a second split, that of w-perp, the reference for
  ``polar.normalizer_section``.

Tests import them with ``from oracles import ...``: pytest puts this
directory on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import scipy.linalg

from chpolar._linalg import TOL_RANK, complex_rows, real_rows, singular_rows, unit_rows
from chpolar.angeom import OrbitModel, an_matrix, an_vector, norm
from chpolar.kahler import (RealSubspace, canonical_subspace, decompose, haar_unitary,
                            normalizer_residual, skew_hermitian_basis)
from chpolar.polar import _q_frame, _spec_q, build_family_I, build_family_II
from chpolar.su1n import (ConsistencyError, _trace_shift, bracket, build_root_decomposition,
                          traceless_block, u_coords, u_frame, u_matrices)

TOL_CONSIST = 1e-9  # agreement of the two computations of ad_exp


def _rank(s, tol):
    """The rank rule of ``_linalg`` on the decreasing singular values s, at
    the cutoff tol: the oracles keep their own cutoffs, so that no reference
    moves with the package's one zero (``_linalg.TOL_RANK``)."""
    return int(np.sum(s > tol * max(1.0, s[0]))) if s.size else 0


def left_nullspace(A, tol):
    """Orthonormal rows c with c @ A = 0, under the rank rule at tol."""
    _, s, vh = np.linalg.svd(A.T, full_matrices=True)
    return vh[_rank(s, tol):]


# -- su(1, n) ------------------------------------------------------------------


def ad(X):
    """The linear map ad(X) = [X, .] as a matrix in the root-space ONB of g."""
    rd = build_root_decomposition(X.shape[-1] - 1)
    return rd.coords_many(bracket(X, rd._mats)).T


def ad_exp(X):
    """Ad(exp X) as a matrix on g, in the root-space ONB.

    Computed both as expm(ad X) and as conjugation by expm(X); the two must
    agree to TOL_CONSIST, otherwise a ConsistencyError is raised.
    """
    rd = build_root_decomposition(X.shape[-1] - 1)
    via_ad = scipy.linalg.expm(ad(X))
    g = scipy.linalg.expm(X)
    ginv = scipy.linalg.expm(-X)
    via_conj = rd.coords_many(g @ rd._mats @ ginv).T
    scale = max(1.0, np.abs(via_conj).max())
    err = np.abs(via_ad - via_conj).max()
    if err > TOL_CONSIST * scale:
        raise ConsistencyError(
            f"expm(ad X) and conjugation by exp(X) disagree by {err:.3g}"
        )
    return via_conj


# -- isotropy and conjugation ----------------------------------------------


def isotropy_at(n, q_basis, xi):
    """Isotropy subalgebra at the point Exp(lambda xi)(o): q cut down to
    ker ad(xi).

    q_basis holds skew-Hermitian matrices acting on C^{n-1} and xi is a
    vector of C^{n-1} ~ g_a.  The k_0 image of N (``su1n.traceless_block``)
    acts on g_a as u -> N u, so the answer is {N in span(q) : N xi = 0},
    computed on the orthonormal frame ``su1n.u_frame`` of q.  Returns an
    orthonormal basis of it in k_0 as a (k, n+1, n+1) stack, (0, n+1, n+1)
    when it is zero.  Neither the scale of q nor that of xi changes the
    answer.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not len(q_basis):
        return np.zeros((0, n + 1, n + 1), dtype=complex)
    rows = u_frame(np.asarray(q_basis, dtype=complex), n)
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape != (n - 1,):
        raise ValueError(f"expected vector in C^{n - 1}")
    xi_hat = unit_rows(real_rows(xi[None]))  # none when xi = 0, which every N fixes
    if len(xi_hat):
        moved = real_rows(u_matrices(rows, n - 1, n) @ xi_hat.view(complex)[0])  # N xi
        rows = left_nullspace(moved, 1e-9) @ rows
    return traceless_block(n, u_matrices(rows, n - 1, n))


def conjugate_subalgebra(n, h_basis, g_exponent):
    """Push a subalgebra h of k_0 + a + n, a (k, n+1, n+1) stack, forward
    by Ad(exp(g_exponent)).

    g_exponent is a vector of a + n, in C^n.  The image is
    re-orthonormalized, returned as a stack, and checked to stay inside
    k_0 + a + n (it must, since AN normalizes the parabolic subalgebra); a
    part outside above 1e-9 relative to |X| raises ConsistencyError.
    """
    rd = build_root_decomposition(n)
    if not len(h_basis):
        return np.zeros((0, n + 1, n + 1), dtype=complex)
    rows = unit_rows(rd.coords_many(np.asarray(h_basis)))
    s, vh = singular_rows(rows @ ad_exp(an_matrix(g_exponent)).T)
    rows = vh[:_rank(s, 1e-12)]
    # g_{-2a} + g_{-a} is the leading run of coordinates, before k_0
    outside = np.linalg.norm(rows[:, :rd.slices["k_0"].start], axis=1)
    part = (outside / np.linalg.norm(rows, axis=1)).max(initial=0.0)
    if part > 1e-9:
        raise ConsistencyError(f"conjugated algebra left k_0 + a + n "
                               f"(part outside / |X| = {part:.3g} > 1e-09)")
    return rd.from_coords_many(rows)


# -- orbits in AN -----------------------------------------------------------------


class LineOrbit(OrbitModel):
    """The orbit of tangent R(aB + X) + w + g_2a, X in g_a = C^{n-1}
    orthogonal to w.  a, X and w may have any scale: X against w is judged
    relative to their lengths, and aB + X = 0 is a ValueError."""

    def __init__(self, n, a, x_vec, w_basis=()):
        self.a = float(a)
        self.x_vec = np.asarray(x_vec, dtype=complex).reshape(-1)
        w_rows = [np.asarray(b, dtype=complex).reshape(-1) for b in w_basis]
        if any(r.shape != (n - 1,) for r in w_rows) or self.x_vec.shape != (n - 1,):
            raise ValueError("g_a data must live in C^{n-1}")
        x_norm = norm(self.x_vec)
        for r in w_rows:
            dot = abs(np.real(np.vdot(r, self.x_vec)))
            if dot > 1e-9 * norm(r) * x_norm:
                raise ValueError(f"X must be orthogonal to w "
                                 f"(|Re<w, X>| / (|w||X|) = {dot / norm(r) / x_norm:.3g} > 1e-9)")
        lead = an_vector(self.a, self.x_vec, 0.0)
        if norm(lead) == 0.0:
            raise ValueError("line-type orbit needs aB + X nonzero")
        zeros = np.zeros(n - 1, dtype=complex)
        super().__init__(n, [(1.0 / norm(lead)) * lead, *(an_vector(0.0, r, 0.0) for r in w_rows),
                             an_vector(0.0, zeros, 1.0)])
        self.dim_w = len(w_rows)

    def mean_curvature_closed_form(self):
        """(3 + dim w) / (2 (a^2 + |X|^2)) (|X|^2 B - a X), the same for every t(aB + X)."""
        size = norm(an_vector(self.a, self.x_vec, 0.0))
        a, x_vec = self.a / size, self.x_vec / size
        xsq = float(np.real(np.vdot(x_vec, x_vec)))
        coef = (3 + self.dim_w) / (2 * (a * a + xsq))
        return an_vector(coef * xsq, -coef * a * x_vec, 0.0)


# -- polar actions -------------------------------------------------------------


def build_action(spec):
    """Dispatch a PolarActionSpec to its family builder.

    Returns (n, h, sigma), the arguments of check_polarity."""
    build = build_family_I if spec.family == "I" else build_family_II
    return (spec.n, *build(spec))


def with_q_basis(spec):
    """The spec with its q given as q_basis: for a named q, the orthonormal
    stack ``polar._spec_q`` builds (to move it by a unitary, say)."""
    if spec.q_type is None:
        return spec
    return replace(spec, q_type=None, q_basis=np.asarray(_spec_q(spec)))


def same_matrix_span(q1, q2, n):
    """Whether the orthonormal (r, m, m) stacks q1 and q2 of ``_q_frame``
    span one space: each u_coords row of one lies in the other's span to
    1e-7.  W q W* stays orthonormal, as the metric is Ad(U(m))-invariant."""
    if len(q1) != len(q2) or not len(q1):
        return len(q1) == len(q2)
    r1, r2 = u_coords(q1, n), u_coords(q2, n)
    return all(
        np.linalg.norm(a - (a @ b.T) @ b, axis=1).max(initial=0.0) <= 1e-7
        for a, b in ((r1, r2), (r2, r1))
    )


def u_frame_apply(Z, n):
    """``u_matrices(np.eye(m * m), m, n) @ Z`` for Z of shape (m, ...), m >= 1,
    without that (m^2, m, m) stack: m^3 entries for a vector, not m^4.  The
    frame's diagonal element j moves z to i (z_j e_j + beta z) / sqrt 2
    (its diagonal shifted along the trace), and the pair j < k gives
    (z_k e_j - z_j e_k) / 2 and i (z_k e_j + z_j e_k) / 2."""
    Z = np.asarray(Z, dtype=complex)
    m = Z.shape[0]
    alpha = _trace_shift(m, n)
    j, k = np.triu_indices(m, 1)
    p, pairs = np.arange(len(j)), len(j)
    out = np.zeros((m * m,) + Z.shape, dtype=complex)
    out[:m] = (1j * alpha / (m * (1.0 - alpha) * math.sqrt(2.0))) * Z
    out[np.arange(m), np.arange(m)] += (1j / math.sqrt(2.0)) * Z
    out[m + p, j] = 0.5 * Z[k]
    out[m + p, k] = -0.5 * Z[j]
    out[m + pairs + p, j] = 0.5j * Z[k]
    out[m + pairs + p, k] = 0.5j * Z[j]
    return out


def sample_ranks(rng, basis, act, samples, tol):
    """The multi-draw sampler: for each of ``samples`` draws, the unit
    combination xi of the orthonormal rows ``basis``, the rank of the rows
    ``act(xi)`` and those rows, as (xi, rank, rows).  The package draws
    twice (``_linalg.generic_draws``); the largest rank over many draws is
    the generic rank it must find."""
    for _ in range(samples):
        coeff = rng.standard_normal(basis.shape[0])
        coeff /= np.linalg.norm(coeff)
        xi = coeff @ basis
        moved = act(xi)
        yield xi, _rank(np.linalg.svd(moved, compute_uv=False), tol), moved


def regular_vectors(q_basis, w, s, samples=100, seed=0):
    """Sample unit vectors xi in s and flag whether [q, xi] fills
    g_a minus (w + s), i.e. the rank of {N xi} equals
    dim g_a - dim w - dim s.

    Everything happens in the C^{n-1} model of g_a, so q enters through
    ``polar._q_frame`` with n = m + 1: a q_basis outside u(m) is a ValueError.
    Returns a list of (xi, flag) pairs.
    """
    m = w.ambient_complex_dim
    if s.ambient_complex_dim != m:
        raise ValueError("w and s must share the ambient space")
    cross = np.abs(real_rows(s.basis) @ real_rows(w.basis).T).max(initial=0.0)
    if cross > 1e-8:
        raise ValueError(f"s must be orthogonal to w (max |Re<s_i, w_j>| = {cross:.3g} > 1e-8)")
    if s.dim == 0:
        return []
    target = 2 * m - w.dim - s.dim
    _, q = _q_frame(np.asarray(q_basis, dtype=complex).reshape(len(q_basis), m, m), m, m + 1)
    ranks = sample_ranks(np.random.default_rng(seed), s.basis,
                         lambda xi: real_rows(q @ xi), samples, TOL_RANK)
    return [(xi, d == target) for xi, d, _ in ranks]


# -- real subspaces of C^m -------------------------------------------------------


def project(V, v):
    """Orthogonal (real-linear) projection of v onto V."""
    v = real_rows(np.asarray(v, dtype=complex).reshape(1, -1))
    return complex_rows(v - V._outside(v), V.ambient_complex_dim)[0]


def contains(V, v):
    """Whether v lies in V, at any scale of v: the part of the unit vector
    along v outside V is at most TOL_RANK."""
    u = unit_rows(real_rows(np.asarray(v, dtype=complex).reshape(1, -1)))
    return bool(np.linalg.norm(V._outside(u)) <= TOL_RANK)


def same_span(V, W):
    return (
        V.dim == W.dim
        and V.contains_subspace(W)
        and W.contains_subspace(V)
    )


def kahler_angle(V, v):
    """Kahler angle of the vector v with respect to V, in [0, pi/2].

    Defined by |pi_V J v| = cos(phi) |v|.  Requires v in V, v != 0; v is
    scaled to unit length first, so any nonzero scale of v gives the angle.
    """
    u = unit_rows(real_rows(np.asarray(v, dtype=complex).reshape(1, -1)))
    if not len(u):
        raise ValueError("Kahler angle of the zero vector is undefined")
    if not contains(V, u.view(complex)):
        raise ValueError("vector is not a member of the subspace")
    cosphi = np.linalg.norm(project(V, 1j * u.view(complex)))
    return float(np.arccos(min(1.0, max(0.0, cosphi))))


def complex_span(V):
    """The complex span C.V = V + JV, as a real subspace."""
    return RealSubspace(V.ambient_complex_dim, np.vstack([V.basis, 1j * V.basis]))


def random_subspace(ambient_dim, moduli, rng):
    """Random subspace with prescribed (angle, dim) moduli: the canonical
    representative moved by a Haar-random unitary."""
    V = canonical_subspace(ambient_dim, moduli)
    A = haar_unitary(ambient_dim, rng)
    return RealSubspace(ambient_dim, V.basis @ A.T)


def normalizer_dimension_formula(V):
    """Closed-form dimension of the normalizer of V in u(m).

    From the product structure of the stabilizer: unitary groups of the
    factors with angle < pi/2, the orthogonal group of the totally real
    factor, and the unitary group of the complex complement of C.V:

        sum_{phi < pi/2} (m_phi / 2)^2  +  m_{pi/2}(m_{pi/2} - 1)/2
            + (m_0_perp / 2)^2,

    where m_0_perp = 2m - dim_R(C.V).
    """
    dec = decompose(V)
    total = 0
    for phi, sub in dec.factors:
        if phi == math.pi / 2:
            total += sub.dim * (sub.dim - 1) // 2
        else:
            total += (sub.dim // 2) ** 2
    m0_perp = 2 * V.ambient_complex_dim - complex_span(V).dim
    total += (m0_perp // 2) ** 2
    return total


def normalizer_nullspace(V):
    """Basis of {T in u(m) : T.V <= V} as an (r, m, m) stack: the left null
    space of the stacked residuals of the generators of u(m).  Its 1e-9
    cutoff may split pairs that decompose groups within TOL_ANGLE, and then
    it is smaller than the closed form."""
    m = V.ambient_complex_dim
    gens = skew_hermitian_basis(m)
    if V.dim == 0 or V.dim == 2 * m:
        return gens
    null = left_nullspace(normalizer_residual(V, gens).reshape(len(gens), -1), 1e-9)
    return np.tensordot(null, gens, axes=1)


def normalizer_section_oracle(w):
    """The section of the named normalizer on w-perp from a second split:
    the first basis row of each factor of decompose(w-perp), the complex
    one included.  Each split fixes its factors only to about eps / gap,
    so for close pairs of w its lines need not be those of
    polar.normalizer_section, which reads them off decompose(w)."""
    return RealSubspace(w.ambient_complex_dim,
                        [sub.basis[0] for _, sub in decompose(w.perp()).factors])
