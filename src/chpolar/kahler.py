"""Real subspaces of a complex Euclidean space and their Kahler angles.

A real subspace of C^m is an R-linear subspace of the realification R^{2m}.
Everything here works with the Euclidean structure Re<u, v> (real part of the
standard Hermitian product) and the complex structure J(v) = i*v.  The central
operation is the canonical decomposition of a subspace into factors of
constant Kahler angle, obtained from the eigenvalues of -(pi_V J)^2 on V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import left_nullspace

# Default tolerances.  Double precision with ambient dimensions up to ~64
# keeps all of these comfortable.
TOL_EIG = 1e-8      # eigenvalue grouping on cos^2(phi)
TOL_ANGLE = 1e-6    # angle comparisons, radians
TOL_MEMBER = 1e-8   # membership tests


def re_inner(u, v):
    """Real part of the Hermitian product <u, v> = sum u_j conj(v_j)."""
    return float(np.real(np.vdot(v, u)))


def _mgs(rows, drop_tol=1e-12):
    """Modified Gram-Schmidt on the given complex rows over the *real* inner
    product Re<.,.>.  Rows that become numerically dependent are dropped."""
    out = []
    for row in rows:
        v = np.array(row, dtype=complex)
        scale = max(1.0, np.linalg.norm(v))
        for _ in range(2):  # one re-orthogonalization pass for stability
            for b in out:
                v = v - re_inner(v, b) * b
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * scale:
            out.append(v / nrm)
    return out


@dataclass(frozen=True)
class RealSubspace:
    """A real-linear subspace of C^m, stored as an orthonormal basis.

    The constructor canonicalizes via modified Gram-Schmidt, so the input
    rows may be any (possibly redundant) real spanning set.
    """

    ambient_complex_dim: int
    basis: np.ndarray = field(repr=False)  # (dim, m) complex, orthonormal rows

    def __init__(self, ambient_complex_dim, vectors=()):
        m = int(ambient_complex_dim)
        if m < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        for r in rows:
            if r.shape != (m,):
                raise ValueError(f"basis vector has length {r.shape}, ambient is C^{m}")
        onb = _mgs(rows)
        if len(onb) > 2 * m:
            raise ValueError("more independent vectors than the realification allows")
        mat = np.array(onb, dtype=complex).reshape(len(onb), m)
        object.__setattr__(self, "ambient_complex_dim", m)
        object.__setattr__(self, "basis", mat)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_real_vectors(cls, ambient_complex_dim, vectors):
        """Build from vectors in interleaved [re_1, im_1, ..., re_m, im_m] layout."""
        m = int(ambient_complex_dim)
        rows = []
        for v in vectors:
            arr = np.asarray(v, dtype=float).reshape(-1)
            if arr.shape != (2 * m,):
                raise ValueError("real vector must have length 2m")
            rows.append(arr[0::2] + 1j * arr[1::2])
        return cls(m, rows)

    @classmethod
    def zero(cls, ambient_complex_dim):
        return cls(ambient_complex_dim, [])

    @classmethod
    def full(cls, ambient_complex_dim):
        m = int(ambient_complex_dim)
        eye = np.eye(m, dtype=complex)
        return cls(m, list(eye) + list(1j * eye))

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self):
        return self.basis.shape[0]

    def project(self, v):
        """Orthogonal (real-linear) projection of v onto this subspace."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if self.dim == 0:
            return np.zeros(self.ambient_complex_dim, dtype=complex)
        coeff = np.array([re_inner(v, b) for b in self.basis])
        return coeff @ self.basis

    def contains(self, v, tol=TOL_MEMBER):
        v = np.asarray(v, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return True
        return np.linalg.norm(v - self.project(v)) <= tol * nrm

    def contains_subspace(self, other, tol=TOL_MEMBER):
        return all(self.contains(b, tol) for b in other.basis)

    def same_span(self, other, tol=TOL_MEMBER):
        return (
            self.dim == other.dim
            and self.contains_subspace(other, tol)
            and other.contains_subspace(self, tol)
        )

    def perp(self):
        """Orthogonal complement in the full realification of C^m."""
        return ominus(RealSubspace.full(self.ambient_complex_dim), self)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        rows = []
        for b in self.basis:
            inter = np.empty(2 * self.ambient_complex_dim)
            inter[0::2] = b.real
            inter[1::2] = b.imag
            rows.append(inter.tolist())
        return {"ambient_complex_dim": self.ambient_complex_dim, "basis": rows}

    @classmethod
    def from_json(cls, data):
        return cls.from_real_vectors(data["ambient_complex_dim"], data["basis"])


@dataclass(frozen=True)
class KahlerDecomposition:
    """Ordered factors (angle, subspace) of constant Kahler angle, angles
    strictly increasing in [0, pi/2]."""

    factors: tuple

    def angles(self):
        return [phi for phi, _ in self.factors]

    def dimensions(self):
        return [sub.dim for _, sub in self.factors]

    def moduli(self):
        """The congruence invariant: list of (angle, dimension) pairs."""
        return [(phi, sub.dim) for phi, sub in self.factors]

    def to_json(self):
        return {
            "factors": [
                {"angle_rad": phi, "subspace": sub.to_json()} for phi, sub in self.factors
            ]
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(
                (f["angle_rad"], RealSubspace.from_json(f["subspace"]))
                for f in data["factors"]
            )
        )


def kahler_angle(V, v, tol_member=TOL_MEMBER):
    """Kahler angle of the vector v with respect to V, in [0, pi/2].

    Defined by |pi_V J v| = cos(phi) |v|.  Requires v in V, v != 0.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("Kahler angle of the zero vector is undefined")
    if not V.contains(v, tol_member):
        raise ValueError("vector is not a member of the subspace")
    cosphi = np.linalg.norm(V.project(1j * v)) / nrm
    return float(np.arccos(min(1.0, max(0.0, cosphi))))


def decompose(V, tol_eig=TOL_EIG):
    """Canonical decomposition of V into factors of constant Kahler angle.

    Builds P = pi_V o J on V, eigendecomposes the PSD operator -P^2, groups
    eigenvalues cos^2(phi) within tol_eig, and returns the factors sorted by
    strictly increasing angle.  Eigenvalues within tol_eig of 1 (resp. 0)
    are snapped to angle exactly 0 (resp. pi/2).
    """
    k = V.dim
    if k == 0:
        return KahlerDecomposition(())
    basis = V.basis
    # P[a, b] = Re< J b_b, b_a >  (matrix of pi_V J restricted to V)
    P = np.array([[re_inner(1j * bb, ba) for bb in basis] for ba in basis])
    M = -P @ P
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    order = np.argsort(-evals)  # decreasing cos^2 -> increasing angle
    evals, evecs = evals[order], evecs[:, order]

    factors = []
    i = 0
    while i < k:
        j = i
        while j + 1 < k and abs(evals[j + 1] - evals[i]) <= tol_eig:
            j += 1
        lam2 = float(np.mean(evals[i : j + 1]))
        lam2 = min(1.0, max(0.0, lam2))
        if lam2 >= 1.0 - tol_eig:
            phi = 0.0
        elif lam2 <= tol_eig:
            phi = math.pi / 2
        else:
            phi = float(np.arccos(np.sqrt(lam2)))
        block = evecs[:, i : j + 1].T @ basis
        factors.append((phi, RealSubspace(V.ambient_complex_dim, block)))
        i = j + 1

    # merge factors whose snapped angles coincide (possible after snapping)
    merged = []
    for phi, sub in factors:
        if merged and abs(merged[-1][0] - phi) <= TOL_ANGLE:
            prev_phi, prev = merged.pop()
            joint = RealSubspace(V.ambient_complex_dim, list(prev.basis) + list(sub.basis))
            merged.append((prev_phi, joint))
        else:
            merged.append((phi, sub))
    dec = KahlerDecomposition(tuple(merged))
    _check_decomposition(V, dec)
    return dec


def _check_decomposition(V, dec, tol=1e-8):
    """Internal invariant checks for a freshly computed decomposition."""
    total = 0
    for phi, sub in dec.factors:
        total += sub.dim
        if phi < math.pi / 2 - TOL_ANGLE and sub.dim % 2 != 0:
            raise ValueError("factor with angle < pi/2 must have even dimension")
    if total != V.dim:
        raise ValueError("factors do not sum to the decomposed subspace")
    for i, (_, a) in enumerate(dec.factors):
        for _, b in dec.factors[i + 1 :]:
            span_a = np.vstack([a.basis, 1j * a.basis])
            span_b = np.vstack([b.basis, 1j * b.basis])
            g = span_a.conj() @ span_b.T
            if g.size and np.max(np.abs(g)) > tol:
                raise ValueError("complex spans of factors are not orthogonal")
    angles = dec.angles()
    if any(angles[i] >= angles[i + 1] for i in range(len(angles) - 1)):
        raise ValueError("angles are not strictly increasing")


def make_constant_angle(pairs, angle, ambient_dim):
    """Canonical subspace of constant Kahler angle.

    For angle in [0, pi/2) returns the 2*pairs dimensional subspace of
    C^{ambient_dim} spanned by

        cos(angle/2) e_j + i sin(angle/2) f_j,
        i cos(angle/2) e_j + sin(angle/2) f_j,      j = 1..pairs,

    with e_j, f_j consecutive standard coordinate vectors (requires
    ambient_dim >= 2*pairs).  For angle == pi/2 returns the totally real
    span of the first `pairs` standard vectors (requires ambient_dim >= pairs).
    """
    m = int(pairs)
    amb = int(ambient_dim)
    if m < 0:
        raise ValueError("pair count must be nonnegative")
    if not (0.0 <= angle <= math.pi / 2):
        raise ValueError("angle must lie in [0, pi/2]")
    if m == 0:
        return RealSubspace.zero(amb)
    if abs(angle - math.pi / 2) <= TOL_ANGLE:
        if amb < m:
            raise ValueError("ambient dimension too small for a totally real factor")
        rows = [np.eye(amb, dtype=complex)[j] for j in range(m)]
        return RealSubspace(amb, rows)
    if amb < 2 * m:
        raise ValueError("constant-angle construction needs ambient dimension >= 2*pairs")
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    eye = np.eye(amb, dtype=complex)
    rows = []
    for j in range(m):
        e, f = eye[2 * j], eye[2 * j + 1]
        rows.append(c * e + 1j * s * f)
        rows.append(1j * c * e + s * f)
    return RealSubspace(amb, rows)


def canonical_subspace(ambient_dim, moduli):
    """Canonical representative with the given (angle, dim) moduli.

    Factors are placed in consecutive coordinate blocks, sorted by angle.
    This normal form is a convention of this library, not mandated by the
    congruence theory (any unitary image is equally canonical).
    """
    amb = int(ambient_dim)
    rows = []
    offset = 0
    for phi, dim in sorted(moduli):
        if dim == 0:
            continue
        if abs(phi - math.pi / 2) <= TOL_ANGLE:
            piece = make_constant_angle(dim, math.pi / 2, dim)
            width = dim
        elif phi <= TOL_ANGLE:
            if dim % 2:
                raise ValueError("complex factor needs even real dimension")
            width = dim // 2
            eye = np.eye(width, dtype=complex)
            piece = RealSubspace(width, list(eye) + list(1j * eye))
        else:
            if dim % 2:
                raise ValueError("constant-angle factor needs even real dimension")
            piece = make_constant_angle(dim // 2, phi, dim)
            width = dim
        if offset + width > amb:
            raise ValueError("moduli do not fit in the ambient dimension")
        for b in piece.basis:
            row = np.zeros(amb, dtype=complex)
            row[offset : offset + width] = b
            rows.append(row)
        offset += width
    return RealSubspace(amb, rows)


def random_subspace(ambient_dim, moduli, rng):
    """Random subspace with prescribed (angle, dim) moduli: the canonical
    representative moved by a Haar-random unitary."""
    V = canonical_subspace(ambient_dim, moduli)
    A = haar_unitary(ambient_dim, rng)
    return RealSubspace(ambient_dim, [A @ b for b in V.basis])


def haar_unitary(m, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def complex_span(V):
    """The complex span C.V = V + JV, as a real subspace."""
    rows = list(V.basis) + list(1j * V.basis)
    return RealSubspace(V.ambient_complex_dim, rows)


def ominus(V, U, tol=TOL_MEMBER):
    """Orthogonal complement of U inside V.  Requires U <= V."""
    if U.ambient_complex_dim != V.ambient_complex_dim:
        raise ValueError("ambient dimensions differ")
    if not V.contains_subspace(U, tol):
        raise ValueError("ominus requires U to be contained in V")
    rows = [b - U.project(b) for b in V.basis]
    out = RealSubspace(V.ambient_complex_dim, rows)
    if out.dim != V.dim - U.dim:
        raise ValueError("complement has unexpected dimension")
    return out


# -- congruence -----------------------------------------------------------


def _complex_onb_of_complex_subspace(sub):
    """C-orthonormal basis of a J-invariant (angle 0) real subspace."""
    out = []
    for b in sub.basis:
        v = b.copy()
        for e in out:
            v = v - np.vdot(e, v) * e  # complex projection
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            out.append(v / nrm)
    return out


def _adapted_frame(sub, phi):
    """Extract the (e_j, f_j) frame of a constant-angle factor, phi in (0, pi/2).

    Returns complex-orthonormal lists es, fs with

        basis pair_j = cos(phi/2) e_j + i sin(phi/2) f_j,
                       i cos(phi/2) e_j + sin(phi/2) f_j.

    The frame choice is deterministic: we peel dim/2 pairs off the stored
    basis in order.  phi must be the factor's own angle: with another one the
    pairs do not exhaust the factor, and a ValueError names what is left.
    """
    c2, s2 = math.cos(phi / 2), math.sin(phi / 2)
    cos_phi = math.cos(phi)
    remaining = [b.copy() for b in sub.basis]
    keep = remaining
    es, fs = [], []
    while remaining and len(es) < sub.dim // 2:
        v = remaining[0]
        v = v / np.linalg.norm(v)
        # J_phi v = (1/cos phi) pi_V (i v), the partner of v inside the factor
        jv_proj = sub.project(1j * v)
        vpartner = jv_proj / cos_phi
        f = (vpartner - 1j * v) / (2 * s2)  # (J_phi v - J v) / (2 sin(phi/2))
        e = (v - 1j * s2 * f) / c2
        es.append(e)
        fs.append(f)
        # remove the real span of (v, partner) intersected with C{e,f} from play
        keep = []
        for w in remaining:
            w2 = w - np.vdot(e, w) * e - np.vdot(f, w) * f
            if np.linalg.norm(w2) > 1e-9:
                keep.append(w2)
        remaining = _mgs(keep)
    if remaining or 2 * len(es) != sub.dim:
        leftover = max((float(np.linalg.norm(w)) for w in keep), default=0.0)
        raise ValueError(
            f"adapted frame at angle {phi!r} peeled {len(es)} of {sub.dim // 2} pairs; "
            f"leftover norm {leftover:.3e}"
        )
    return es, fs


def _complete_to_unitary(cols, m):
    """Deterministically complete C-orthonormal columns to a unitary basis of C^m."""
    out = [np.asarray(c, dtype=complex) for c in cols]
    eye = np.eye(m, dtype=complex)
    for j in range(m):
        v = eye[j].copy()
        for e in out:
            v = v - np.vdot(e, v) * e
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            out.append(v / nrm)
        if len(out) == m:
            break
    if len(out) != m:
        raise ValueError("could not complete to a unitary basis")
    return out


def same_moduli(m1, m2, tol_angle=TOL_ANGLE):
    """The congruence rule on Kahler moduli (KahlerDecomposition.moduli()):
    the same number of factors, equal dimensions and angles within
    tol_angle, factor by factor."""
    return len(m1) == len(m2) and all(
        d1 == d2 and abs(phi1 - phi2) <= tol_angle
        for (phi1, d1), (phi2, d2) in zip(m1, m2)
    )


def congruent(V, W, tol_angle=TOL_ANGLE):
    """Decide U(m)-congruence of two real subspaces; build a witness if so.

    Returns (True, A) with A unitary and A.V = W when the Kahler moduli
    (angle multisets with dimensions) agree, else (False, None).
    """
    if V.ambient_complex_dim != W.ambient_complex_dim:
        raise ValueError("ambient dimensions differ")
    dv, dw = decompose(V), decompose(W)
    if not same_moduli(dv.moduli(), dw.moduli(), tol_angle):
        return False, None
    return True, congruence_witness(dv, dw, V.ambient_complex_dim)


def congruence_witness(dv, dw, m):
    """Unitary A of C^m carrying the factors of dv onto those of dw.

    dv and dw are the decompositions of two subspaces of C^m whose moduli
    agree under same_moduli; then A.V = W.
    """
    if dv.dimensions() != dw.dimensions():
        raise ValueError(
            f"factor dimensions differ: {dv.dimensions()} vs {dw.dimensions()}"
        )
    # build C-orthonormal frames factor by factor, then complete
    src_cols, dst_cols = [], []
    for (phi, s1), (phi2, s2) in zip(dv.factors, dw.factors):
        if phi <= TOL_ANGLE:
            src_cols += _complex_onb_of_complex_subspace(s1)
            dst_cols += _complex_onb_of_complex_subspace(s2)
        elif abs(phi - math.pi / 2) <= TOL_ANGLE:
            # a real orthonormal basis of a totally real subspace is C-orthonormal
            src_cols += list(s1.basis)
            dst_cols += list(s2.basis)
        else:
            es1, fs1 = _adapted_frame(s1, phi)
            es2, fs2 = _adapted_frame(s2, phi2)
            src_cols += es1 + fs1
            dst_cols += es2 + fs2
    src = _complete_to_unitary(src_cols, m)
    dst = _complete_to_unitary(dst_cols, m)
    S = np.array(src).T  # columns are the source frame
    D = np.array(dst).T
    return D @ S.conj().T


# -- normalizers ----------------------------------------------------------


def skew_hermitian_basis(m):
    """Real basis of u(m): i e_jj, (e_jk - e_kj), i (e_jk + e_kj)."""
    out = []
    for j in range(m):
        E = np.zeros((m, m), dtype=complex)
        E[j, j] = 1j
        out.append(E)
    for j in range(m):
        for k in range(j + 1, m):
            E = np.zeros((m, m), dtype=complex)
            E[j, k], E[k, j] = 1.0, -1.0
            out.append(E)
            E = np.zeros((m, m), dtype=complex)
            E[j, k], E[k, j] = 1j, 1j
            out.append(E)
    return out


def normalizer_algebra(V):
    """Basis of {T in u(m) : T.V <= V}, solved as a nullspace problem."""
    m = V.ambient_complex_dim
    gens = skew_hermitian_basis(m)
    if V.dim == 0 or V.dim == 2 * m:
        return gens
    rows = []
    for T in gens:
        resid = []
        for b in V.basis:
            r = T @ b
            r = r - V.project(r)
            resid.append(np.concatenate([r.real, r.imag]))
        rows.append(np.concatenate(resid))
    null = left_nullspace(np.array(rows))  # one row of constraints per T
    return [sum(c * g for c, g in zip(coeffs, gens)) for coeffs in null]


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
        if abs(phi - math.pi / 2) <= TOL_ANGLE:
            total += sub.dim * (sub.dim - 1) // 2
        else:
            total += (sub.dim // 2) ** 2
    m0_perp = 2 * V.ambient_complex_dim - complex_span(V).dim
    total += (m0_perp // 2) ** 2
    return total
