"""Real subspaces of a complex Euclidean space and their Kahler angles.

A real subspace of C^m is an R-linear subspace of the realification R^{2m}.
Everything here works with the Euclidean structure Re<u, v> (real part of the
standard Hermitian product) and the complex structure J(v) = i*v.  Vectors
of C^m are handled as their real rows (``_linalg.real_rows``: re, im
interleaved), on which Re<u, v> is the dot product, so projections and Gram
matrices are matmuls and every orthonormalization and rank decision goes
through ``_linalg``.  The central operation is the canonical decomposition
of a subspace into factors of constant Kahler angle, obtained from the
singular values of the sine and cosine operators (1 - pi_V) J and pi_V J
on V.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (complement_rows, complex_rows, orthonormal_rows, real_rows,
                      singular_rows, unit_rows)

# Tolerances; no flag or parameter changes them.  TOL_ANGLE, in radians,
# is the one angle tolerance (decompose, same_moduli).  It groups two pairs
# 1e-8 apart (0.5 + 1e-8 - 0.5 is 1.000000005e-8) and stays below 1.41e-8,
# the spread at which the named normalizer of the group leaks past
# polar.TOL_SUBALGEBRA = 1e-8 (its closure residual is the spread / sqrt 2).
TOL_ANGLE = 1.2e-8
TOL_MEMBER = 1e-8   # membership tests
# The least interior Kahler angle _adapted_frame frames: a factor phi from
# 0 is framed to about eps / phi, and one below the floor is an input error.
FRAME_FLOOR = 5e-6


def json_int(value, name):
    """An integer read from JSON, as int: a bool, a string, or a number
    that int() would change is a ValueError."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_array(data, name, ndim, last, what):
    """A JSON array of numbers as one float array of ndim axes, the last of
    length ``last``; an empty array passes as it is.  A ragged nesting,
    another shape, or an entry that is not a finite number (true and false
    included, which numpy would read as 1 and 0) is a ValueError naming
    ``name``.  The entry types are checked as one set over the flattened
    JSON lists; the offending entry is looked for only on failure."""
    bad = f"{name} must be {what}, all finite numbers"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{bad}: {exc}") from exc
    if not arr.size:
        return arr
    if arr.ndim != ndim or arr.shape[-1] != last:
        raise ValueError(f"{bad} (read an array of shape {arr.shape})")
    leaves = data
    for _ in range(ndim - 1):
        leaves = [*itertools.chain.from_iterable(leaves)]
    if not {*map(type, leaves)} <= {int, float}:
        raise ValueError(f"{bad}, got {next(x for x in leaves if type(x) not in (int, float))!r}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{bad}, got NaN or Infinity")
    return arr


def json_keys(data, known, what):
    """A JSON object with keys ``known`` only, else a ValueError naming ``what``."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(unknown)}; it reads {', '.join(known)}")


@dataclass(frozen=True)
class RealSubspace:
    """A real-linear subspace of C^m, stored as an orthonormal basis.

    The constructor canonicalizes through ``_linalg``: the input rows may be
    any (possibly redundant) real spanning set at any scale, and the stored
    rows are an orthonormal basis of their span (not a Gram-Schmidt flag of
    the input).
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
        mat = np.array(rows, dtype=complex).reshape(len(rows), m)
        orth = orthonormal_rows(unit_rows(real_rows(mat)))
        object.__setattr__(self, "ambient_complex_dim", m)
        object.__setattr__(self, "basis", complex_rows(orth, m))

    # -- constructors ---------------------------------------------------

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

    def _outside(self, rows):
        """The parts of the real rows ``rows`` orthogonal to this subspace."""
        B = real_rows(self.basis)
        return rows - (rows @ B.T) @ B

    def contains_subspace(self, other):
        """Whether every (unit) basis row of other lies in this subspace."""
        resid = self._outside(real_rows(other.basis))
        return bool(np.linalg.norm(resid, axis=1).max(initial=0.0) <= TOL_MEMBER)

    def perp(self):
        """Orthogonal complement in the full realification of C^m."""
        return ominus(RealSubspace.full(self.ambient_complex_dim), self)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        rows = real_rows(self.basis).tolist()  # the interleaved layout
        return {"ambient_complex_dim": self.ambient_complex_dim, "basis": rows}

    @classmethod
    def from_json(cls, data):
        """Read ``to_json``'s object: basis vectors in the interleaved
        [re_1, im_1, ..., re_m, im_m] layout (``json_array``), m an integer."""
        json_keys(data, ("ambient_complex_dim", "basis"), "a RealSubspace")
        m = json_int(data["ambient_complex_dim"], "ambient_complex_dim")
        rows = json_array(data["basis"], "basis", 2, 2 * m,
                          f"a list of vectors of 2m = {2 * m} entries")
        return cls(m, rows[..., 0::2] + 1j * rows[..., 1::2])


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


def decompose(V):
    """Canonical decomposition of V into factors of constant Kahler angle.

    On the orthonormal basis of V, the sine operator (1 - pi_V) J has the
    singular values sin(phi) and the cosine operator pi_V J the values
    cos(phi).  Angles below pi/4 and their vectors come from the sine, the
    rest from the cosine, so an angle phi lies about phi from 0 or pi/2,
    not phi^2 as on cos^2 (Knyazev-Argentati, SIAM J. Sci. Comput. 23,
    2002).  Angles within TOL_ANGLE of 0 or pi/2 are snapped to exactly 0.0
    or pi/2, the rest are grouped within TOL_ANGLE of a group's first, and
    the factors come by strictly increasing angle.  Callers test a factor
    for 0.0 and pi/2 exactly: only this function decides those.
    """
    k = V.dim
    if k == 0:
        return KahlerDecomposition(())
    basis = V.basis
    sines, sin_rows = singular_rows(V._outside(real_rows(1j * basis)).T)
    cosines, cos_rows = singular_rows(_pi_J(basis))
    low = np.arcsin(np.minimum(sines[::-1], 1.0))  # increasing, as the angles of the cosines
    angles = np.where(low < math.pi / 4, low, np.arccos(np.minimum(cosines, 1.0)))
    angles[angles <= TOL_ANGLE] = 0.0
    angles[angles >= math.pi / 2 - TOL_ANGLE] = math.pi / 2

    factors = []
    i = 0
    while i < k:
        j = i + 1
        while j < k and angles[j] - angles[i] <= TOL_ANGLE:
            j += 1
        phi = float(0.5 * (angles[i] + angles[j - 1]))  # exactly 0.0 or pi/2 when snapped
        rows = (sin_rows[::-1] if phi < math.pi / 4 else cos_rows)[i:j]
        factors.append((phi, RealSubspace(V.ambient_complex_dim, rows @ basis)))
        i = j
    dec = KahlerDecomposition(tuple(factors))
    _check_decomposition(dec)
    return dec


def _pi_J(basis):
    """The matrix of pi_V J on V in the orthonormal rows ``basis`` of V:
    P[a, b] = Re<J b_b, b_a>, so P @ x are the coordinates of pi_V J(x @ basis)."""
    return real_rows(basis) @ real_rows(1j * basis).T


def _check_decomposition(dec):
    """Numerical guards: a factor below pi/2 has even dimension, and factors
    have orthogonal complex spans.  Dimensions summing to dim V and strictly
    increasing angles hold by construction (tests/test_kahler.py asserts them)."""
    for phi, sub in dec.factors:
        if phi != math.pi / 2 and sub.dim % 2 != 0:
            raise ValueError("factor with angle < pi/2 must have even dimension")
    # Hermitian products across factors; |<a, b>| also bounds <Ja, b>
    owner = np.repeat(np.arange(len(dec.factors)), dec.dimensions())
    F = np.vstack([sub.basis for _, sub in dec.factors])
    cross = np.abs(F.conj() @ F.T)[owner[:, None] != owner[None, :]]
    if cross.max(initial=0.0) > TOL_MEMBER:
        raise ValueError(
            f"complex spans of factors are not orthogonal "
            f"(max |<a, b>| = {cross.max():.3g} > {TOL_MEMBER:g})"
        )


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


def haar_unitary(m, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix drawn
    from the numpy Generator ``rng``.  No command calls it: it makes the
    unitary images of the tests and of the benchmark's workloads."""
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ominus(V, U):
    """Orthogonal complement of U inside V.  Requires U <= V."""
    if U.ambient_complex_dim != V.ambient_complex_dim:
        raise ValueError("ambient dimensions differ")
    if not V.contains_subspace(U):
        raise ValueError("ominus requires U to be contained in V")
    # the residuals are orthonormal or rounding noise: rank them as they are
    rows = orthonormal_rows(U._outside(real_rows(V.basis)))
    out = RealSubspace(V.ambient_complex_dim, complex_rows(rows, V.ambient_complex_dim))
    if out.dim != V.dim - U.dim:
        raise ValueError("complement has unexpected dimension")
    return out


# -- congruence -----------------------------------------------------------


def _adapted_frame(sub, phi):
    """The (e_j, f_j) frame of a factor of interior Kahler angle phi.

    Returns C-orthonormal rows e_1..e_p, f_1..f_p (p = dim/2) with

        cos(phi_j/2) e_j + i sin(phi_j/2) f_j,  i cos(phi_j/2) e_j + sin(phi_j/2) f_j

    spanning the factor, phi_j the angle of pair j: phi itself, or within
    TOL_ANGLE of it in a factor that ``decompose`` grouped.  The
    eigenvectors c_j of the Hermitian i pi_V J with the positive
    eigenvalues cos phi_j, in the factor's orthonormal basis, have real and
    imaginary parts v_j and J_j v_j = pi_V J v_j / cos phi_j, and

        v_j - i J_j v_j = 2 cos(phi_j/2) e_j,  -i (v_j + i J_j v_j) = 2 sin(phi_j/2) f_j,

    so each of these rows scaled to unit length frames its pair at its own
    angle.  The second is about phi_j long, so it is off by about eps / phi:
    a factor below FRAME_FLOOR is a ValueError naming the floor.  One
    Newton-Schulz step, F -> (3 - F F*) F / 2, takes the Gram matrix I + E
    to I + O(E^2) (eigh mixes pairs whose eigenvalues differ by rounding);
    a frame whose Gram matrix is still not within TOL_MEMBER of the
    identity (NaN included) is a ValueError.
    """
    if phi < FRAME_FLOOR:
        raise ValueError(f"Kahler angle {phi!r} lies below FRAME_FLOOR = {FRAME_FLOOR:g}, "
                         f"the least interior angle whose adapted frame is accurate")
    H = 1j * _pi_J(sub.basis)
    _, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))  # -cos phi_j, then +cos phi_j
    c = vecs[:, sub.dim // 2:].T
    frame = np.vstack([c.conj() @ sub.basis, -1j * c @ sub.basis])  # v - i Jv, -i (v + i Jv)
    frame /= np.linalg.norm(frame, axis=1, keepdims=True)
    frame = 0.5 * (3.0 * frame - (frame @ frame.conj().T) @ frame)
    leftover = np.abs(frame @ frame.conj().T - np.eye(len(frame))).max()
    if not leftover <= TOL_MEMBER:
        raise ValueError(
            f"adapted frame at angle {phi!r} is not C-orthonormal: "
            f"leftover norm {leftover:.3e} > {TOL_MEMBER:g}"
        )
    return frame


def _factor_frame(phi, sub):
    """A C-orthonormal frame of the factor ``sub`` of Kahler angle phi: a
    C-orthonormal basis of a complex factor, the real orthonormal basis of a
    totally real one (C-orthonormal there), the adapted frame of an interior
    one."""
    if phi == 0.0:
        return orthonormal_rows(sub.basis)
    if phi == math.pi / 2:
        return sub.basis
    return _adapted_frame(sub, phi)


def same_moduli(m1, m2):
    """The congruence rule on Kahler moduli (KahlerDecomposition.moduli()):
    the same number of factors, equal dimensions and angles within
    TOL_ANGLE, factor by factor."""
    return len(m1) == len(m2) and all(
        d1 == d2 and abs(phi1 - phi2) <= TOL_ANGLE
        for (phi1, d1), (phi2, d2) in zip(m1, m2)
    )


def congruent(V, W):
    """Decide U(m)-congruence of two real subspaces; build a witness if so.

    Returns (True, A) with A unitary and A.V = W when the Kahler moduli
    (angle multisets with dimensions) agree, else (False, None).
    """
    if V.ambient_complex_dim != W.ambient_complex_dim:
        raise ValueError("ambient dimensions differ")
    dv, dw = decompose(V), decompose(W)
    if not same_moduli(dv.moduli(), dw.moduli()):
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
    # C-orthonormal frames factor by factor, then completed to unitaries
    S = np.vstack([np.zeros((0, m))] + [_factor_frame(phi, s) for phi, s in dv.factors])
    D = np.vstack([np.zeros((0, m))] + [_factor_frame(phi, s) for phi, s in dw.factors])
    S = np.vstack([S, complement_rows(S, m)])  # the rows of unitary matrices
    D = np.vstack([D, complement_rows(D, m)])
    return D.T @ S.conj()


# -- normalizers ----------------------------------------------------------


def skew_hermitian_basis(m):
    """Real basis of u(m) as an (m^2, m, m) stack: i e_jj, then for each
    j < k in turn e_jk - e_kj and i (e_jk + e_kj)."""
    out = np.zeros((m * m, m, m), dtype=complex)
    out[np.arange(m), np.arange(m), np.arange(m)] = 1j
    i = m
    for j in range(m):
        for k in range(j + 1, m):
            out[i, j, k], out[i, k, j] = 1.0, -1.0
            out[i + 1, j, k] = out[i + 1, k, j] = 1j
            i += 2
    return out


def normalizer_residual(V, mats):
    """The parts (1 - pi_V)(T b) of T b outside V, for every matrix T of
    ``mats`` and every b in V.basis, as real rows of shape (len(mats), V.dim,
    2m): T normalizes V exactly when its block vanishes.  ``mats`` is an
    (r, m, m) stack, or anything that multiplies vectors like one."""
    m = V.ambient_complex_dim
    images = mats @ V.basis.T
    rows = real_rows(images.transpose(0, 2, 1).reshape(-1, m))
    return V._outside(rows).reshape(len(images), V.dim, 2 * m)


def _unit_matrices(mats):
    """The mutually orthogonal matrices of a stack, each at Frobenius norm 1."""
    return mats / np.linalg.norm(mats, axis=(1, 2), keepdims=True)


def normalizer_algebra(V):
    """The normalizer {T in u(m) : T.V <= V} in closed form, as an (r, m, m)
    stack orthonormal for Re tr(N* M): the q that a spec names "normalizer"
    (polar._spec_q), and the one construction of it here.

    A unitary normalizing V keeps each factor of decompose(V) (an
    eigenspace of -(pi_V J)^2) and the complement of C.V, so the normalizer
    is block-diagonal in their C-orthonormal frames F, T = F^T M conj(F):

    - a complex factor C^c: M in u(c);
    - an interior factor of angle phi, in its adapted frame (e_j, f_j),
      j <= p: the factor is {cos(phi/2) x.e + i sin(phi/2) conj(x).f, x in
      C^p}, so M = diag(X, conj X) with X in u(p);
    - the totally real factor R^r: M in so(r), in its real basis;
    - the complement of C.V: M in u of it.

    Pairs that decompose groups within TOL_ANGLE share a factor, so they
    share its u(p); an interior factor below FRAME_FLOOR is a ValueError
    (``_adapted_frame``).  Its dimension has a closed form, and an SVD null
    space is its numerical oracle (tests/oracles.py)."""
    m = V.ambient_complex_dim
    frames, blocks = [np.zeros((0, m))], []
    for phi, sub in decompose(V).factors:
        F = _factor_frame(phi, sub)
        if phi == 0.0:
            gens = _unit_matrices(skew_hermitian_basis(len(F)))
        elif phi == math.pi / 2:
            gens = _unit_matrices(skew_hermitian_basis(len(F))[len(F)::2])  # E_jk - E_kj
        else:
            p = len(F) // 2
            X = _unit_matrices(skew_hermitian_basis(p)) / math.sqrt(2.0)
            gens = np.zeros((p * p, 2 * p, 2 * p), dtype=complex)
            gens[:, :p, :p], gens[:, p:, p:] = X, X.conj()
        frames.append(F)
        blocks.append(F.T @ gens @ F.conj())
    rest = complement_rows(np.vstack(frames), m)
    blocks.append(rest.T @ _unit_matrices(skew_hermitian_basis(len(rest))) @ rest.conj())
    return np.concatenate(blocks)
