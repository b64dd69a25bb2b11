"""Matrix model of su(1, n) and its restricted root space decomposition.

Elements are traceless complex (n+1)x(n+1) matrices X with
X* I + I X = 0 for I = diag(-1, 1, ..., 1).  The Cartan involution is
theta(X) = I X I; the positive definite inner product is

    <X, Y> = -c Re tr(theta(X) Y),

with the scale c fixed so that the distinguished unit vector B spanning the
maximal abelian subspace a has <B, B> = 1 (this pins c = 2 and makes the
holomorphic sectional curvature of the associated symmetric space -1).

Every root space is written in closed form (arXiv 1208.2823, section 2):
g_{+-2a} spanned by Z and theta(Z), g_{+-a} by an adapted frame and its
theta-image, and k_0 = {diag(ia, ia, N) traceless, N in u(n-1)}, the
image of u(n-1) under ``traceless_block``.  u(m) has one orthonormal
frame for the metric of su(1, n), ``u_coords``: the k_0 block is its
image, and every q given from outside enters through ``u_frame``.  The
whole frame never multiplies vectors here: a named u(m) acts in closed
form (``polar._UFrame``), with 2m + 1 rows in place of m^2.  The
construction only assembles these blocks; the tests assert the structure
(tests/test_su1n.py): the basis is orthonormal and lies in su(1, n), ad(B)
is diagonal in it with the root values {-1, -1/2, 0, 1/2, 1}, theta and J
act as stated, against the numerical constructions of the root spaces as
ad(B) eigenspaces and of k_0 by orthonormalizing its generators as oracles.
Distinguished generators: Z spans g_{2a} with <Z, Z> = 2 and sign fixed
by J B = Z, where J is the complex structure of the solvable model; J on
g_a is J X = -[theta(X), Z].

Elements are plain numpy matrices.  ``bracket`` and ``theta`` broadcast,
so they take a matrix or a (k, n+1, n+1) stack alike, and
``RootDecomposition.coords_many`` takes coordinates of a whole stack in one
matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._linalg import ConsistencyError, orthonormal_rows, real_rows, scaled_norm, unit_rows

TOL_ALG = 1e-12     # membership tolerance for su(1, n)


def _signature(n):
    return np.diag([-1.0] + [1.0] * n).astype(complex)


def membership_residual(mats):
    """How far each matrix X of a (k, n+1, n+1) stack is from su(1, n),
    relative to max|X| (0 for X = 0):

        max(|tr X| / (n + 1), max|X* I + I X| / 10) / max|X|.

    The one membership test: check_polarity compares it with TOL_ALG, at
    any scale of X, and so do the tests on the root-space basis."""
    n = mats.shape[-1] - 1
    I = _signature(n)
    trace = np.abs(np.trace(mats, axis1=1, axis2=2)) / (n + 1)
    skew = np.abs(mats.conj().transpose(0, 2, 1) @ I + I @ mats).max(axis=(1, 2), initial=0.0) / 10
    scale = np.abs(mats).max(axis=(1, 2), initial=0.0)
    return np.divide(np.maximum(trace, skew), scale, out=np.zeros(len(mats)), where=scale > 0)


def bracket(X, Y):
    """Lie bracket, the matrix commutator; it broadcasts, so a matrix and a
    (k, n+1, n+1) stack give the stack of brackets."""
    return X @ Y - Y @ X


def theta(X):
    """Cartan involution theta(X) = I X I: entry (i, j) times eps_i eps_j,
    on a matrix or a stack."""
    eps = np.ones(X.shape[-1])
    eps[0] = -1.0
    return X * np.outer(eps, eps)


_METRIC_SCALE = 2.0  # c of <B, B> = 1, as 1 / tr(B^2); the tests assert it


def inner(X, Y):
    """The inner product <X, Y> = -c Re tr(theta(X) Y), positive definite.

    Satisfies the skew-adjointness <ad(X)Y, W> = -<Y, ad(theta X) W>.
    """
    return -_METRIC_SCALE * float(np.real(np.trace(theta(X) @ Y)))


def norm(X):
    """|X| = sqrt<X, X>, at any scale of X (``scaled_norm``)."""
    return scaled_norm(inner, X)


def inner_an(X, Y):
    """Left-invariant metric of AN: <X, Y> on a, halved on n = g_a + g_2a.

    Both arguments must lie in a + n (``split_a_n``), else ValueError.
    """
    rd = build_root_decomposition(X.shape[-1] - 1)
    Xa, Xn = rd.split_a_n(X)
    Ya, Yn = rd.split_a_n(Y)
    return inner(Xa, Ya) + 0.5 * inner(Xn, Yn)


@dataclass(frozen=True)
class RootDecomposition:
    """Restricted root space data of su(1, n) for a fixed n.

    The global orthonormal basis, the stack ``_mats``, is ordered by blocks

        [g_{-2a} | g_{-a} | k_0 | a | g_a | g_{2a}]

    and index ranges for each block are exposed.  The g_a block is the
    adapted frame F_1, J F_1, F_2, J F_2, ..., which realizes the complex
    identification g_a ~ C^{n-1}; all of these are <,>-orthonormal (the
    AN-orthonormal frame, ``galpha_matrices`` of the unit vectors, is
    sqrt(2) times it).  Elements are (n+1) x (n+1) matrices and
    coordinates go stacked, one row per matrix.
    """

    n: int
    slices: dict                  # block name -> slice into the basis
    B: np.ndarray                 # unit vector spanning a
    Z: np.ndarray                 # generator of g_2a, <Z,Z> = 2, J B = Z
    theta_matrix: np.ndarray      # theta in basis coordinates, a signed permutation
    _dual: np.ndarray = field(repr=False)   # coordinate functionals, see _functionals
    _mats: np.ndarray = field(repr=False)   # stacked orthonormal basis matrices

    # -- coordinates -------------------------------------------------------

    @property
    def dim(self):
        return len(self._mats)

    def coords_many(self, stack):
        """Coordinates of a (k, n+1, n+1) stack in the global ONB (Euclidean
        for <,>), one row per matrix: Re(stack.reshape(k, -1) @ _dual.T) as
        one real matmul."""
        return real_rows(stack) @ self._dual.T

    def dual_rows(self, rows):
        """Functionals X -> rows @ coords(X): dotted with ``real_rows(X)``,
        they give the coordinates of X along other orthonormal rows."""
        return np.asarray(rows, dtype=float).reshape(-1, self.dim) @ self._dual

    def from_coords_many(self, rows):
        """The (k, n+1, n+1) stack of matrices with the given coordinate rows."""
        rows = np.asarray(rows, dtype=float).reshape(-1, self.dim)
        flat = rows @ real_rows(self._mats)
        return flat.view(complex).reshape(len(rows), self.n + 1, self.n + 1)

    def block(self, name):
        """The ONB elements of a root-space block, as a read-only stack."""
        return self._mats[self.slices[name]]

    def project_block(self, X, names):
        """Projection of the matrix X onto the direct sum of the named blocks."""
        v = self.coords_many(X[None])[0]
        mask = np.zeros(self.dim)
        for name in names:
            mask[self.slices[name]] = 1.0
        return self.from_coords_many(v * mask)[0]

    def split_a_n(self, X):
        """Split X = X_a + X_n; raise if the part of X outside a + n exceeds
        1e-9 relative to |X|, so at any scale of X."""
        Xa = self.project_block(X, ["a"])
        Xn = self.project_block(X, ["g_a", "g_2a"])
        size = norm(X)
        rest = norm(X - Xa - Xn) / size if size else 0.0
        if rest > 1e-9:
            raise ValueError(
                f"element does not lie in a + n (part outside / |X| = {rest:.3g} > 1e-09)"
            )
        return Xa, Xn


def galpha_matrices(u):
    """The g_a elements X(u)/2 of the rows u of a (k, n-1) array: first row
    and column (0, conj u | u)/2, second (0, conj u | -u)/2."""
    n = u.shape[1] + 1
    out = np.zeros((len(u), n + 1, n + 1), dtype=complex)
    out[:, 0, 2:] = out[:, 1, 2:] = u.conj() / 2
    out[:, 2:, 0] = u / 2
    out[:, 2:, 1] = -u / 2
    return out


def p_matrices(z):
    """The p-matrices of the rows z of a (k, n) array: first row (0, conj z),
    first column (0, z)."""
    n = z.shape[1]
    out = np.zeros((len(z), n + 1, n + 1), dtype=complex)
    out[:, 0, 1:] = z.conj()
    out[:, 1:, 0] = z
    return out


def _functionals(mats, c):
    """Coordinate functionals of a stack: row i, dotted with ``real_rows(X)``,
    gives <E_i, X> = -c Re(vec(theta(E_i)^T) . vec(X))."""
    d = (-c * theta(mats).transpose(0, 2, 1)).reshape(len(mats), -1)
    out = np.empty((len(mats), 2 * d.shape[1]))
    out[:, 0::2] = d.real
    out[:, 1::2] = -d.imag
    return out


def traceless_block(n, N):
    """N in u(m) placed in the trailing m x m block of an (n+1) x (n+1)
    matrix, minus (tr N / (n+1)) Id: diag(0, 0, N) - trace for the k_0
    embedding of u(n-1), and the q-block of family I for m = n - k.  The
    subtracted scalar is central in u(1, n), so this is an injective Lie
    homomorphism u(m) -> su(1, n); for m = n - 1 its image is k_0, and the
    image of N acts on g_a as u -> N u in the adapted frame.  A (k, m, m)
    stack N gives the stack of images."""
    m = N.shape[-1]
    mat = np.zeros(N.shape[:-2] + (n + 1, n + 1), dtype=complex)
    mat[..., n + 1 - m:, n + 1 - m:] = N
    mat -= (np.trace(N, axis1=-2, axis2=-1) / (n + 1))[..., None, None] * np.eye(n + 1)
    return mat


# -- u(m) in the metric of su(1, n) --------------------------------------------


def _trace_shift(m, n):
    """alpha with (1 - alpha)^2 = 1 - m / (n + 1): the shift along the trace
    that makes u_coords an isometry."""
    return 1.0 - math.sqrt((n + 1 - m) / (n + 1))


def u_coords(N, n):
    """Coordinates of the skew-Hermitian parts of the (r, m, m) stack N in an
    orthonormal frame of u(m) for the metric su(1, n) puts on it through
    ``traceless_block``,

        <N, M> = 2 (Re tr(N* M) - Im tr N Im tr M / (n + 1)):

    the Frobenius frame i E_jj, (E_jk - E_kj)/sqrt 2, i (E_jk + E_kj)/sqrt 2,
    its diagonal part shifted along the trace.  Orthonormal rows here are
    orthonormal elements of su(1, n) under ``traceless_block``, so a figure
    measured on them is the figure measured in su(1, n)."""
    m = N.shape[-1]
    S = 0.5 * (N - N.conj().transpose(0, 2, 1))
    diag = S.diagonal(axis1=1, axis2=2).imag
    diag = diag - (_trace_shift(m, n) / m) * diag.sum(axis=1, keepdims=True)
    iu = np.triu_indices(m, 1)
    off = math.sqrt(2.0) * S[:, iu[0], iu[1]]
    return math.sqrt(2.0) * np.hstack([diag, off.real, off.imag])


def u_matrices(rows, m, n):
    """The (r, m, m) stack of u(m) matrices with the given u_coords rows;
    ``traceless_block(n, u_matrices(np.eye(m * m), m, n))`` is the
    orthonormal k_0 block of the root-space basis for m = n - 1."""
    rows = np.asarray(rows, dtype=float) / math.sqrt(2.0)
    alpha = _trace_shift(m, n)
    diag = rows[:, :m]
    diag = diag + (alpha / (m * (1.0 - alpha))) * diag.sum(axis=1, keepdims=True)
    p = m * (m - 1) // 2
    off = (rows[:, m:m + p] + 1j * rows[:, m + p:]) / math.sqrt(2.0)
    out = np.zeros((len(rows), m, m), dtype=complex)
    out[:, np.arange(m), np.arange(m)] = 1j * diag
    iu = np.triu_indices(m, 1)
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = -off.conj()
    return out


def u_orthonormal(S, n):
    """The (r, m, m) stack S of u(m), orthonormal for Re tr(N* M), made
    orthonormal for the metric of su(1, n) on u(m) (see u_coords) in closed
    form.  The two differ only along the trace: the Gram matrix of S / sqrt 2
    in that metric is G = I - t t^T / (n + 1) with t = Im tr S, and
    G^{-1/2} = I + (1 / sqrt(1 - |t|^2 / (n + 1)) - 1) t t^T / |t|^2."""
    t = np.trace(S, axis1=1, axis2=2).imag
    tt = float(t @ t)
    mix = np.eye(len(S))
    if tt > 0.0:
        mix += (1.0 / math.sqrt(1.0 - tt / (n + 1)) - 1.0) * np.outer(t, t) / tt
    return np.tensordot(mix, S, axes=1) / math.sqrt(2.0)


def u_frame(mats, n):
    """Orthonormal u_coords rows spanning the nonempty (r, m, m) stack mats
    of skew-Hermitian matrices, at any scale of mats: the one way a q given
    from outside enters u(m).  A matrix whose Hermitian part exceeds 1e-9
    of its largest entry is a ValueError."""
    skew = np.abs(mats + mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if (skew > 1e-9 * np.abs(mats).max(axis=(1, 2))).any():
        raise ValueError(f"q_basis matrices are not skew-Hermitian (|N + N*| = {skew.max():.3g})")
    return orthonormal_rows(unit_rows(u_coords(mats, n)))


def _theta_permutation(slices, dim):
    """theta in ONB coordinates: swaps g_{2a} <-> g_{-2a} and g_a <-> g_{-a}
    entry by entry, fixes k_0 and negates a."""
    out = np.zeros((dim, dim))
    for pos, neg in (("g_a", "g_ma"), ("g_2a", "g_m2a")):
        p = np.arange(dim)[slices[pos]]
        q = np.arange(dim)[slices[neg]]
        out[p, q] = out[q, p] = 1.0
    k0 = np.arange(dim)[slices["k_0"]]
    out[k0, k0] = 1.0
    out[slices["a"].start, slices["a"].start] = -1.0
    return out


@lru_cache(maxsize=None)
def build_root_decomposition(n):
    """Construct (and cache) the root space decomposition of su(1, n).

    a = R.H0 with H0 the matrix with ones at (0, 1) and (1, 0); B = H0/2 so
    that ad(B) has eigenvalue 1/2 on g_a.  Every block is written in closed
    form: Z, the adapted g_a frame X(u)/2 (first row and column
    (0, conj u | u), second (0, conj u | -u)), the theta-images of both,
    and k_0 = {diag(ia, ia, N) traceless, N in u(n-1)} in the orthonormal
    frame of ``u_coords``.  Nothing here is checked at run time: the
    tests assert, up to n = 16, that the basis is orthonormal and lies in
    su(1, n), that the blocks are the ad(B) eigenspaces, and the stated
    theta_matrix, J and normalizations of B and Z.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    N1 = n + 1
    m = n - 1

    Bmat = np.zeros((N1, N1), complex)
    Bmat[0, 1] = Bmat[1, 0] = 0.5  # B = H0 / 2

    # distinguished g_{2a} generator: <Z, Z> = 2, sign fixed by J B = Z
    Zmat = np.zeros((N1, N1), complex)
    Zmat[0, 0], Zmat[0, 1], Zmat[1, 0], Zmat[1, 1] = 0.5j, -0.5j, 0.5j, -0.5j

    # adapted AN-orthonormal frame of g_a: F_j = X(e_j)/2 and J F_j = X(i e_j)/2
    frame = galpha_matrices(np.kron(np.eye(m), [[1.0], [1j]]))

    k0 = traceless_block(n, u_matrices(np.eye(m * m), m, n))

    # assemble the global ONB; g_a frame rescaled to <,>-unit
    galpha_unit = frame / np.sqrt(2)
    g2a = Zmat[None] / np.sqrt(2)
    blocks = [
        ("g_m2a", theta(g2a)),
        ("g_ma", theta(galpha_unit)),
        ("k_0", k0),
        ("a", Bmat[None]),
        ("g_a", galpha_unit),
        ("g_2a", g2a),
    ]
    slices = {}
    start = 0
    for name, block in blocks:
        slices[name] = slice(start, start + len(block))
        start += len(block)
    mats = np.concatenate([block for _, block in blocks])
    dual = _functionals(mats, _METRIC_SCALE)
    theta_mat = _theta_permutation(slices, start)
    for arr in (Bmat, Zmat, mats, dual, theta_mat):
        arr.flags.writeable = False  # shared by every caller through the cache
    return RootDecomposition(
        n=n,
        slices=slices,
        B=Bmat,
        Z=Zmat,
        theta_matrix=theta_mat,
        _dual=dual,
        _mats=mats,
    )
