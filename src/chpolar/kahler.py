"""Real subspaces of a complex Euclidean space and their Kahler angles.

A real subspace of C^m is an R-linear subspace of the realification R^{2m}.
Everything here works with the Euclidean structure Re<u, v> (real part of the
standard Hermitian product) and the complex structure J(v) = i*v.  Vectors
of C^m are handled as their real rows (``_linalg.real_rows``: re, im
interleaved), on which Re<u, v> is the dot product, so projections and Gram
matrices are matmuls and every orthonormalization, rank decision and
singular value goes through ``_linalg``.  The central operation is the
canonical decomposition of a subspace into factors of constant Kahler
angle: one SVD of its complex basis gives every pair, its angle phi read
off the singular value sqrt 2 sin(phi/2) and its vectors off the left
singular vector of that value (``_kahler_pairs``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (TOL_RANK, complement_rows, complex_rows, orthonormal_rows, real_rows,
                      singular_rows, unit_rows)

# Tolerances; no flag or parameter changes them.  Membership tests read
# _linalg.TOL_RANK, the one zero of every rank.  TOL_ANGLE, in radians,
# is the one angle tolerance (decompose, same_moduli).  It groups two pairs
# 1e-8 apart (0.5 + 1e-8 - 0.5 is 1.000000005e-8) and stays below 1.41e-8,
# the spread at which the named normalizer of the group leaks past
# polar.TOL_SUBALGEBRA = 1e-8 (its closure residual is the spread / sqrt 2).
TOL_ANGLE = 1.2e-8
# The least interior Kahler angle _adapted_frame frames: a factor phi from
# 0 is framed to about eps / phi, and one more than TOL_ANGLE below the
# floor is an input error.
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
        return bool(np.linalg.norm(resid, axis=1).max(initial=0.0) <= TOL_RANK)

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
    """Ordered factors (angle, subspace) of constant Kahler angle, angles strictly
    increasing in [0, pi/2], of ``subspace`` (``to_json`` writes the factors only)."""

    factors: tuple
    subspace: RealSubspace = field(repr=False)

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

    ``_kahler_pairs`` reads the singular values of the complex basis of V,
    sqrt 2 cos(phi/2) and sqrt 2 sin(phi/2) for each pair and 1 on the
    totally real part, as the angles pi - phi, phi and pi/2.  Every pair
    more than TOL_ANGLE below pi/2 takes its angle phi and its vectors
    sqrt 2 Re c and sqrt 2 Im c from the conjugate left vector c of its
    smaller value; what is left of V is the totally real factor, at
    exactly pi/2.  sqrt 2 sin(phi/2) has slope at least 1/2 on [0, pi/2],
    so the smaller values of two pairs phi and phi + d lie at least d/2
    apart and each c is accurate to about eps / d on all of [0, pi/2]; the
    eigenvalues cos(phi) of i pi_V J lie only d sin(phi) apart, which
    vanishes at 0 (Knyazev-Argentati, SIAM J. Sci. Comput. 23, 2002).
    Angles within TOL_ANGLE of 0 are snapped to exactly 0.0, and the rows,
    in increasing angle, are grouped within TOL_ANGLE of a group's first,
    so the factors come by strictly increasing angle.  Callers test a
    factor for 0.0 and pi/2 exactly: only this function decides those.
    """
    k = V.dim
    if k == 0:
        return KahlerDecomposition((), V)
    basis = V.basis
    theta, c = _kahler_pairs(basis)
    pick = theta < math.pi / 2 - TOL_ANGLE  # the smaller values of the pairs, last
    pairs, c = theta[pick][::-1], c[pick][::-1]  # increasing
    pair_rows = math.sqrt(2.0) * np.stack([c.real, c.imag], axis=1).reshape(-1, k)
    real = complement_rows(pair_rows, k)  # the totally real factor
    angles = np.concatenate([np.repeat(pairs, 2), np.full(len(real), math.pi / 2)])
    rows = np.vstack([pair_rows, real])
    angles[angles <= TOL_ANGLE] = 0.0

    factors = []
    i = 0
    while i < k:
        j = i + 1
        while j < k and angles[j] - angles[i] <= TOL_ANGLE:
            j += 1
        phi = float(0.5 * (angles[i] + angles[j - 1]))  # exactly 0.0 or pi/2 when snapped
        factors.append((phi, RealSubspace(V.ambient_complex_dim, rows[i:j] @ basis)))
        i = j
    dec = KahlerDecomposition(tuple(factors), V)
    _check_decomposition(dec)
    return dec


def _kahler_pairs(basis):
    """The angles of the real span V of the orthonormal rows ``basis``
    ((k, m) complex), decreasing, and their vectors as rows.

    The Hermitian Gram matrix B B* of the complex basis B is 1 + i P, P the
    matrix of pi_V J on V's real coordinates, and i P has the eigenvalues
    +-cos(phi) on the pairs and 0 on the totally real part.  So the
    singular values s of B, zero-padded to k columns, are sqrt 2 cos(phi/2)
    and sqrt 2 sin(phi/2) for each pair and 1 on the rest, read here as
    the angles 2 arcsin(s / sqrt 2): pi - phi, phi and pi/2.  The row c of
    the smaller value of a pair, the conjugate of its left singular vector,
    is the eigenvector of i P at cos(phi): the real coordinates sqrt 2 Re c
    and sqrt 2 Im c span the pair."""
    k, m = basis.shape
    padded = np.zeros((max(k, m), k), dtype=complex)
    padded[:m] = basis.conj().T
    s, c = singular_rows(padded)
    return 2.0 * np.arcsin(np.minimum(s / math.sqrt(2.0), 1.0)), c


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
    if cross.max(initial=0.0) > TOL_RANK:
        raise ValueError(
            f"complex spans of factors are not orthogonal "
            f"(max |<a, b>| = {cross.max():.3g} > {TOL_RANK:g})"
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


def _adapted_frame(V, sub, phi):
    """The (e_j, f_j) frame of a factor ``sub`` of V of interior Kahler angle phi.

    Returns C-orthonormal rows e_1..e_p, f_1..f_p (p = dim/2) with

        cos(phi_j/2) e_j + i sin(phi_j/2) f_j,  i cos(phi_j/2) e_j + sin(phi_j/2) f_j

    spanning the factor, phi_j the angle of pair j: phi itself, or within
    TOL_ANGLE of it in a factor that ``decompose`` grouped.  The rows c_j
    of the smaller singular values sqrt 2 sin(phi_j/2) of the complex basis
    of the factor (``_kahler_pairs``) give the unit v_j = sqrt 2 Re c_j @
    sub.basis, and J v_j is split against V: p = pi_V J v_j (|p| = cos
    phi_j), o = J v_j - p.

        v_j - i p/|p| = 2 cos(phi_j/2) e_j,  p (1 - |p|)/|p| - o = 2 sin(phi_j/2) f_j,

    1 - |p| taken as |o|^2 / (1 + |p|): each row scaled to unit length
    frames its pair at its own angle, in V to rounding, where a split
    against the factor (off by about eps / phi) would divide its error by
    phi.  The second row is about phi long, so it is off by about eps / phi:
    a factor more than TOL_ANGLE below FRAME_FLOOR is a ValueError naming
    the floor.  One Newton-Schulz step, F -> (3 - F F*) F / 2, takes the Gram
    matrix I + E to I + O(E^2) (the SVD mixes pairs whose singular values
    differ by rounding); a Gram matrix still not within TOL_RANK of I (NaN
    included) is a ValueError.
    """
    if phi + TOL_ANGLE < FRAME_FLOOR:
        raise ValueError(f"Kahler angle {phi!r} lies below FRAME_FLOOR = {FRAME_FLOOR:g}, "
                         f"the least interior angle whose adapted frame is accurate")
    _, c = _kahler_pairs(sub.basis)  # pi - phi_j, then phi_j
    v = math.sqrt(2.0) * c[sub.dim // 2:].real @ sub.basis
    B, Jv = real_rows(V.basis), real_rows(1j * v)
    p = (Jv @ B.T) @ B
    o, p = (Jv - p).view(complex), p.view(complex)
    norm_p = np.linalg.norm(p, axis=1, keepdims=True)
    one_minus = np.sum(np.abs(o) ** 2, axis=1, keepdims=True) / (1.0 + norm_p)  # 1 - |p|
    frame = np.vstack([v - 1j * p / norm_p, p * one_minus / norm_p - o])
    frame /= np.linalg.norm(frame, axis=1, keepdims=True)
    frame = 0.5 * (3.0 * frame - (frame @ frame.conj().T) @ frame)
    leftover = np.abs(frame @ frame.conj().T - np.eye(len(frame))).max()
    if not leftover <= TOL_RANK:
        raise ValueError(
            f"adapted frame at angle {phi!r} is not C-orthonormal: "
            f"leftover norm {leftover:.3e} > {TOL_RANK:g}"
        )
    return frame


def frames(dec):
    """The C-orthonormal frame of each factor of ``dec`` in order, then the rows of the
    complement of C.V, V = dec.subspace, together one unitary matrix: ``orthonormal_rows``
    at 0, the real basis at pi/2 and in between the adapted frame against V
    (``_adapted_frame``), which the congruence witness and the named normalizer read."""
    m = dec.subspace.ambient_complex_dim
    F = [orthonormal_rows(sub.basis) if phi == 0.0 else sub.basis if phi == math.pi / 2
         else _adapted_frame(dec.subspace, sub, phi) for phi, sub in dec.factors]
    return [*F, complement_rows(np.vstack([np.zeros((0, m)), *F]), m)]


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
    return True, congruence_witness(dv, dw)


def congruence_witness(dv, dw):
    """Unitary A of C^m carrying the factors of dv onto those of dw, read
    off their unitary ``frames``.

    dv and dw are the decompositions of two subspaces of C^m whose moduli
    agree under same_moduli; then A.V = W.
    """
    if dv.dimensions() != dw.dimensions():
        raise ValueError(
            f"factor dimensions differ: {dv.dimensions()} vs {dw.dimensions()}"
        )
    return np.vstack(frames(dw)).T @ np.vstack(frames(dv)).conj()


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
    ``mats`` and every b in V.basis, as real rows of shape (r, V.dim, 2m):
    T normalizes V exactly when its block vanishes.  ``mats`` is an
    (r, m, m) stack, or anything whose products with vectors, r rows each,
    have the Gram matrix of such a stack's, which keeps the norm."""
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
    dec = decompose(V)
    *F_all, rest = frames(dec)
    blocks = []
    for (phi, _), F in zip(dec.factors, F_all):
        if phi == 0.0:
            gens = _unit_matrices(skew_hermitian_basis(len(F)))
        elif phi == math.pi / 2:
            gens = _unit_matrices(skew_hermitian_basis(len(F))[len(F)::2])  # E_jk - E_kj
        else:
            p = len(F) // 2
            X = _unit_matrices(skew_hermitian_basis(p)) / math.sqrt(2.0)
            gens = np.zeros((p * p, 2 * p, 2 * p), dtype=complex)
            gens[:, :p, :p], gens[:, p:, p:] = X, X.conj()
        blocks.append(F.T @ gens @ F.conj())
    blocks.append(rest.T @ _unit_matrices(skew_hermitian_basis(len(rest))) @ rest.conj())
    return np.concatenate(blocks)
