"""Constructors and numerical checks for the two polar-action families.

Family I:  h = q + so(1, k) inside su(1, n), with q a subalgebra of
u(n - k) acting on the trailing C^{n-k} block (embedded tracelessly; the
dropped scalar part acts trivially on the space).  One orbit is a totally
geodesic R H^k, the others lie in tubes around it.

Family II: h = q + b + w + g_2a, with b in {0, a}, w a real subspace of
g_a ~ C^{n-1}, and q a subalgebra of k_0 normalizing w.  The claimed
section is exp_o((a - b) + (1 - theta) s) for a totally real s in the
orthogonal complement of w.

``check_polarity`` evaluates the slice-representation criterion at the base
point: the section must sit in the normal space of the orbit, h must be
orthogonal to the section and its brackets, the isotropy action must move
the section orthogonally to itself, and the isotropy orbit of a generic
section vector together with the section must fill the normal space.  These
are the necessary conditions of the criterion; for the compact isotropy
representations arising here the dimension-saturation check at a regular
vector (``_linalg.generic_draws``) certifies the section property without
invoking the classification of polar representations (a documented
limitation for exotic inputs).

``check_polarity`` works on any h given as a stack of su(1, n) matrices, as
the builders return it from a spec.  ``check_spec`` evaluates the same
criterion on a PolarActionSpec in the tangent space T_o CH^n = C^n, where
the isotropy algebra h cap k acts by m x m blocks: every bracket the
root-space structure fixes is written in closed form, and only q is
measured.  Both report the same residuals, Frobenius norms of basis-free
maps (see PolarityReport).

In both families q is one (r, m, m) stack of u(m), m = n - k or n - 1,
and its k_0 image is ``su1n.traceless_block``; it is measured in the one
frame of u(m), ``su1n.u_coords``, which the metric of su(1, n) fixes.  A
spec gives q either as a q_basis, which enters that frame through
``su1n.u_frame``, or by name (Q_TYPES), built there in closed form.

``orbit_equivalence_invariants`` (the compare command) decides orbit
equivalence past the congruence obstructions by one sampled test: at two
generic v the orbit tangents q_1 v and q_2 v, the first carried by the
congruence witness, must agree to TOL_TANGENT.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from . import kahler
from ._linalg import (TOL_RANK, complement_rows, generic_draws, left_nullspace, orthonormal_rows,
                      rank, real_rows, singular_rows, unit_rows)
from .kahler import RealSubspace, json_array, json_int, json_keys
from .su1n import (
    TOL_ALG,
    bracket,
    build_root_decomposition,
    galpha_matrices,
    membership_residual,
    p_matrices,
    traceless_block,
    u_coords,
    u_frame,
    u_frame_apply,
    u_matrices,
    u_orthonormal,
)

# Report bounds, not rank cutoffs: every rank here is at _linalg.TOL_RANK.
TOL_SUBALGEBRA = 1e-8  # is_subalgebra; also the builders' bound on the closure of h
TOL_Q_CLOSED = 1e-9    # the builders' bound on the [q, q] part of that closure
TOL_SECTION = 1e-8     # section_in_normal
TOL_BRACKET = 1e-9     # bracket_condition
TOL_SLICE = 1e-8       # h_o moves sigma orthogonally to itself (slice_condition)
TOL_TANGENT = 1e-7     # gap of two orbit tangents read as one (orbit_equivalence_invariants)
Q_TYPES = ("u", "t", "normalizer")  # the names a spec may give its q by
# Neighbours in [0, *grid, pi/2] of the catalog's angle grid lie at least
# GRID_MARGIN apart, twice kahler.FRAME_FLOOR, the least interior angle the
# adapted frame takes, so every grid angle clears that floor; gaps of 1e-5
# elsewhere verify polar over the catalogs for n <= 8.
GRID_MARGIN = 2 * kahler.FRAME_FLOOR
SPEC_KEYS = {"I": ("n", "family", "seed", "k", "q", "q_basis", "q_section"),  # the JSON keys
             "II": ("n", "family", "seed", "b", "w", "q", "q_basis", "q_section")}  # of a spec


def _upper_pairs(mats):
    """(M_i, M_{i+1:}) for each i: the pairs i < j, one row at a time."""
    return ((mats[i], mats[i + 1:]) for i in range(len(mats) - 1))


def _bracket_values(rows, functionals):
    """For each (X, Ys) of ``rows``, the functionals applied to the stack of
    [X, Y] over Y in Ys: one stacked commutator and one matmul per row,
    never the whole (k^2, n+1, n+1) array of brackets."""
    if functionals.shape[0]:
        for X, Ys in rows:
            yield real_rows(bracket(X, Ys)) @ functionals.T


def _pair_norm(blocks):
    """Frobenius norm of an antisymmetric bilinear map on an orthonormal
    basis, from the value blocks of its pairs i < j: each block counts for
    both orders of its pairs, so the figure does not depend on the basis."""
    return math.sqrt(2.0 * sum(float(np.sum(vals * vals)) for vals in blocks))


def _q_frame(q_basis, m, n):
    """q through ``su1n.u_frame``, the one way a q_basis enters u(m):
    orthonormal u_coords rows (metric of su(1, n)) and their (r, m, m)
    stack, both empty for an empty q."""
    if not len(q_basis):  # also m = 0, where u_matrices has no frame
        return np.zeros((0, m * m)), np.zeros((0, m, m), dtype=complex)
    rows = u_frame(q_basis, n)  # q at any scale
    return rows, u_matrices(rows, m, n)


@dataclass(frozen=True)
class _UFrame:
    """All of u(m) in its orthonormal frame ``u_matrices(np.eye(m * m), m, n)``,
    standing in for that (m^2, m, m) stack: its m^4 entries (250 MB at
    m = 63) are formed only by ``np.asarray``, while its length and its
    products with vectors (``su1n.u_frame_apply``, m^3 entries), all that
    check_spec, _checked_inputs and orbit_equivalence_invariants ask of
    q, are not."""

    m: int
    n: int

    def __len__(self):
        return self.m * self.m

    def __matmul__(self, Z):
        return u_frame_apply(Z, self.n)

    def __array__(self, dtype=None, copy=None):
        return u_matrices(np.eye(self.m * self.m), self.m, self.n).astype(dtype or complex)


def _spec_q(spec):
    """An orthonormal basis of the spec's named q in the metric of su(1, n),
    as an (r, m, m) stack in closed form, the rows of the frame of
    ``su1n.u_coords`` that span it (a q_basis goes through ``_q_frame``):

    - "u": u(m), the whole frame (a ``_UFrame``; u(0) = 0);
    - "t": the maximal torus t(m), its diagonal;
    - "normalizer": the normalizer of w in u(m), ``kahler.normalizer_algebra``,
      block-diagonal in the canonical frame of kahler.decompose(w).
    """
    m, n = spec.m, spec.n
    if m == 0:
        return np.zeros((0, 0, 0), dtype=complex)
    if spec.q_type == "u":
        return _UFrame(m, n)
    if spec.q_type == "t":
        return u_matrices(np.eye(m, m * m), m, n)
    return u_orthonormal(kahler.normalizer_algebra(spec.w), n)


def _checked_inputs(spec):
    """The one input check of a spec, run by the builders, check_spec and
    the compare and curvature commands: q_basis is skew-Hermitian
    (``su1n.u_frame``), the section and w live in C^m, [q, q] <= q and
    [q, w] <= w.  A named q is closed by construction, so it costs no
    m^2 x m^2 SVD and no [q, q] bracket; its [q, w] is measured, the
    normalizer's too.  kahler.normalizer_algebra is the one normalizer,
    named or spelled out as a q_basis: that of w as kahler.decompose groups
    its angles (within kahler.TOL_ANGLE), closed under the bracket, which
    leaks from w with a closure residual of the spread of a group over
    sqrt(2).

    h is closed exactly except for those two brackets: every other one is
    fixed by the root-space structure.  Their parts outside h, over
    orthonormal bases, make up the closure residual of h (PolarityReport's
    ``subalgebra_residual``): the [q, q] part is measured inside u(m)
    against the complement of q there (empty for q = u(m), so free), the
    [q, w] part is kahler.normalizer_residual.  A [q, q] part above
    TOL_Q_CLOSED or a total above TOL_SUBALGEBRA is a ValueError, so every
    input these checks accept reads is_subalgebra true.

    Returns (q, residual): an orthonormal basis of q in the metric of
    su(1, n), as an (r, m, m) stack (``_q_frame`` or ``_spec_q``), and the
    closure residual of h."""
    n, m = spec.n, spec.m
    w = spec.w if spec.family == "II" else None
    if spec.q_section.ambient_complex_dim != m or (w is not None and w.ambient_complex_dim != m):
        raise ValueError(f"q_section{'' if w is None else ' and w'} must live in C^{m}")
    closure = 0.0
    if spec.q_type is None:
        rows, q = _q_frame(spec.q_basis, m, n)
        if 0 < len(rows) < m * m:
            perp = complement_rows(rows, m * m)
            closure = _pair_norm(u_coords(X @ Ys - Ys @ X, n) @ perp.T for X, Ys in _upper_pairs(q))
        if closure > TOL_Q_CLOSED:
            raise ValueError(
                f"q_basis is not closed under the bracket (residual {closure:.3g} > {TOL_Q_CLOSED:g})"
            )
    else:
        q = _spec_q(spec)
    if not len(q):
        return q, 0.0
    leak = 0.0 if w is None else float(np.linalg.norm(kahler.normalizer_residual(w, q)))
    resid = math.hypot(closure, math.sqrt(2.0) * leak)
    if resid > TOL_SUBALGEBRA:
        raise ValueError(
            f"q does not normalize w (|(1 - pi_w) N b| = {leak:.3g} over orthonormal N in q "
            f"and b in w; closure residual of h {resid:.3g} > {TOL_SUBALGEBRA:g})"
        )
    return q, resid


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass
class PolarActionSpec:
    """Input data for one of the two polar-action families.

    family 'I':  k in {0..n}; q_basis skew-Hermitian on C^{n-k}; q_section a
    totally real subspace of C^{n-k} claimed as a section of the q-action.

    family 'II': b_flag in {'zero', 'full'}; w a real subspace of C^{n-1};
    q_basis skew-Hermitian on C^{n-1} normalizing w; q_section a totally
    real subspace of C^{n-1} orthogonal to w.

    q_basis may be given as any sequence of m x m matrices and is stored as
    one complex (r, m, m) stack; _checked_inputs checks its algebra.  Or q
    is named by q_type, one of Q_TYPES (see _spec_q; "normalizer" is family
    II only), and q_basis stays empty: JSON ``"q": {"type": ...}`` in place
    of ``"q_basis"``.
    """

    n: int
    family: str
    k: int | None = None
    b_flag: str | None = None
    w: RealSubspace | None = None
    q_basis: np.ndarray = ()
    q_section: RealSubspace | None = None
    seed: int = 0
    q_type: str | None = None

    @property
    def m(self):
        """q acts on C^m: m = n - 1 for family II, n - k for family I."""
        return self.n - 1 if self.family == "II" else self.n - self.k

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.family not in ("I", "II"):
            raise ValueError("family must be 'I' or 'II'")
        if self.family == "I" and (self.k is None or not (0 <= self.k <= self.n)):
            raise ValueError("family I needs k in {0..n}")
        if self.family == "II" and self.b_flag not in ("zero", "full"):
            raise ValueError("family II needs b_flag 'zero' or 'full'")
        m = self.m
        if self.family == "II" and self.w is None:
            self.w = RealSubspace.zero(m)
        if self.q_section is None:
            self.q_section = RealSubspace.zero(m)
        q = np.asarray(self.q_basis, dtype=complex)
        q = q.reshape(0, m, m) if not q.size else q  # no entries, as in from_json
        if q.ndim != 3 or q.shape[1:] != (m, m):
            raise ValueError(f"q_basis must act on C^{m}")
        self.q_basis = np.ascontiguousarray(q)
        if self.q_type is not None:
            if self.q_type not in Q_TYPES:
                raise ValueError(f"q type must be one of {', '.join(Q_TYPES)}; got {self.q_type!r}")
            if self.q_type == "normalizer" and self.family != "II":
                raise ValueError("q type 'normalizer' (of w) needs family II")
            if len(q):
                raise ValueError("a spec gives q or q_basis, not both")

    def to_json(self):
        out = {"n": self.n, "family": self.family, "seed": self.seed}
        if self.family == "I":
            out["k"] = self.k
        else:
            out["b"] = self.b_flag
            out["w"] = self.w.to_json()
        if self.q_type is not None:
            out["q"] = {"type": self.q_type}
        else:  # each entry as its [re, im] pair: the complex stack viewed as floats
            q = self.q_basis
            out["q_basis"] = q.view(float).reshape(*q.shape, 2).tolist() if q.size else []
        out["q_section"] = self.q_section.to_json()
        return out

    @classmethod
    def from_json(cls, data):
        def subspace(key):
            if key not in data:
                return None
            try:
                return RealSubspace.from_json(data[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc

        family = data["family"]  # __post_init__ rejects all but 'I' and 'II'
        if family in ("I", "II"):
            json_keys(data, SPEC_KEYS[family], f"a family {family} spec")
        if "q" in data and "q_basis" in data:
            raise ValueError("a spec gives q or q_basis, not both")
        fields = dict(n=json_int(data["n"], "n"), family=family, q_section=subspace("q_section"),
                      q_basis=_q_basis_from_json(data.get("q_basis", [])),
                      seed=json_int(data.get("seed", 0), "seed"),
                      q_type=_q_type_from_json(data["q"]) if "q" in data else None)
        if family == "I":
            fields["k"] = json_int(data["k"], "k")
        elif family == "II":
            fields.update(b_flag=data["b"], w=subspace("w"))
        return cls(**fields)


def _q_type_from_json(data):
    """The type of a JSON q descriptor, {"type": name}; __post_init__ checks
    the name against Q_TYPES."""
    if type(data) is not dict or set(data) != {"type"}:
        raise ValueError(f'q must be {{"type": name}} with name one of {", ".join(Q_TYPES)}; '
                         f"got {data!r}")
    return data["type"]


def _q_basis_from_json(data):
    """The (r, m, m) complex stack of a JSON q_basis: r matrices of [re, im]
    pairs, read as one float array (``kahler.json_array``) and viewed as
    complex."""
    arr = json_array(data, "q_basis", 4, 2, "a list of matrices of [re, im] pairs")
    return arr.view(complex)[..., 0] if arr.size else arr


@dataclass
class PolarityReport:
    """Outcome of the numerical polarity criterion, with all residuals.

    The residuals are Frobenius norms of maps between subspaces, so they do
    not depend on the bases in which they are evaluated; each is taken over
    orthonormal bases in the metric <X, Y> = -2 Re tr(theta(X) Y) of
    su(1, n), and the matching boolean is the residual against its bound:

    - ``subalgebra_residual`` = |P_{h-perp} [., .]| on h x h, the part of
      the bracket of h outside h (``is_subalgebra``: at most 1e-8);
    - ``section_residual`` = |P_{nu-perp} P_sigma|, the part of sigma
      outside the normal space nu (``section_in_normal``: at most 1e-8);
    - ``bracket_residual`` = sqrt(|P_h P_sigma|^2 + |P_h [., .]|^2), the
      second map on sigma x sigma (``bracket_condition``: at most 1e-9).

    ``slice_condition`` holds when |P_sigma [., .]| on h_o x sigma is at
    most 1e-8 (h_o = h cap k moves sigma orthogonally to itself) and sigma
    plus [h_o, xi] fills nu at the first of two generic draws xi in sigma.
    """

    is_subalgebra: bool
    subalgebra_residual: float
    section_in_normal: bool
    section_residual: float
    bracket_condition: bool
    bracket_residual: float
    slice_condition: bool
    dim_normal: int
    dim_section: int
    dim_isotropy_orbit: int
    cohomogeneity: int
    transitive: bool
    verdict: bool

    def to_json(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _section_stack(spec, lead):
    """The claimed section tangent as p-matrices (``su1n.p_matrices``): the
    rows ``lead`` of C^n, then the section vectors of C^m in the trailing
    coordinates."""
    n, section = spec.n, spec.q_section
    z = np.zeros((len(lead) + section.dim, n), dtype=complex)
    z[:len(lead)] = np.reshape(lead, (len(lead), n))
    z[len(lead):, n - spec.m:] = section.basis
    return p_matrices(z)


def build_family_II(spec):
    """Assemble h = q + b + w + g_2a and its claimed section tangent in p
    for a family II spec.

    Returns (h, sigma) as (k, n+1, n+1) stacks of su(1, n) matrices.  Raises
    ValueError when the algebra preconditions fail (see _checked_inputs:
    [q, w] not inside w or q not a subalgebra); once they hold, h is closed
    to within TOL_SUBALGEBRA.  The claimed section is passed through
    untouched: a bad claim (not totally real, meeting w, ...) is the
    criterion's job to reject, so that deliberately wrong claims produce a
    false verdict with residuals instead of an input error.  A section
    vector s stands for X(s) - theta X(s) with X(s) in g_a, the p-matrix of
    (0, s).
    """
    n = spec.n
    q, _ = _checked_inputs(spec)
    rd = build_root_decomposition(n)
    h = [traceless_block(n, np.asarray(q)), galpha_matrices(spec.w.basis), rd.Z[None]]
    lead = []
    if spec.b_flag == "full":
        h.insert(1, rd.B[None])
    else:
        lead.append(np.eye(n)[0] / 2)  # B = p(e_0 / 2)
    return np.concatenate(h), _section_stack(spec, lead)


def build_family_I(spec):
    """Assemble h = q + so(1, k) and its claimed section tangent in p for a
    family I spec.

    so(1, k) occupies the upper-left (k+1) x (k+1) block as real matrices;
    q acts on the trailing C^{n-k} block, embedded as diag(0, N) minus its
    trace scalar (the scalar generates the trivial-acting center of u(1, n),
    so the action on the space is the standard q-action).  The section
    tangent is the line R(iB) for k >= 1 plus the claimed q-section inside
    the totally geodesic complementary block.  Returns (h, sigma) as
    (k, n+1, n+1) stacks; raises ValueError when q is not a subalgebra of
    u(n - k) (see _checked_inputs).
    """
    n, k = spec.n, spec.k
    q, _ = _checked_inputs(spec)
    i, j = np.triu_indices(k + 1, 1)
    so = np.zeros((len(i), n + 1, n + 1), dtype=complex)
    so[np.arange(len(i)), i, j] = 1.0
    so[np.arange(len(i)), j, i] = np.where(i == 0, 1.0, -1.0)  # -eps_i eps_j
    lead = [0.5j * np.eye(n)[0]] if k >= 1 else []  # i B, normal to T_o RH^k in T_o CH^k
    h = np.concatenate([so, traceless_block(n, np.asarray(q))])
    return h, _section_stack(spec, lead)


def _closure_residual(rd, h_rows):
    """|P_{h-perp} [., .]| on h x h over the orthonormal coordinate rows
    h_rows, a Frobenius norm: it depends neither on the basis nor on the
    scale of the input."""
    perp = rd.dual_rows(complement_rows(h_rows, rd.dim))
    return _pair_norm(_bracket_values(_upper_pairs(rd.from_coords_many(h_rows)), perp))


# ---------------------------------------------------------------------------
# the polarity criterion
# ---------------------------------------------------------------------------


def _section_residual(sig, nu):
    """|P_{nu-perp} P_sigma| from orthonormal rows of sigma and nu."""
    return float(np.linalg.norm(sig - (sig @ nu.T) @ nu))


def _slice_orthogonality(sig, act):
    """|P_sigma [., .]| on h_o x sigma, from the orthonormal rows ``sig`` of
    sigma and ``act(xi)``, the rows [T, xi] over an orthonormal basis T of
    h_o: zero when h_o moves sigma orthogonally to itself."""
    return math.sqrt(sum(float(np.sum((act(s) @ sig.T) ** 2)) for s in sig))


def _report(residuals, sig, nu, act, seed):
    """Step 4 and the verdict, shared by check_polarity and check_spec.

    ``residuals`` are (subalgebra, section, bracket, slice orthogonality);
    ``sig`` and ``nu`` orthonormal rows of sigma and nu in one Euclidean
    model of p; ``act`` as in _slice_orthogonality.  At the first of two
    generic draws xi in sigma, whose ranks dim[h_o, xi] agree, the span
    sigma + [h_o, xi] must fill nu."""
    sub_resid, sec_resid, br_resid, ortho_resid = residuals
    rng = random.Random(seed)
    is_subalgebra = sub_resid <= TOL_SUBALGEBRA
    section_in_normal = sec_resid <= TOL_SECTION
    bracket_condition = br_resid <= TOL_BRACKET

    k_sec, dim_nu = sig.shape[0], nu.shape[0]
    (_, dim_orbit_xi, moved), _ = generic_draws(rng, sig, act)
    dim_joint = rank(np.vstack([sig, moved]))
    slice_condition = (ortho_resid <= TOL_SLICE) and (dim_joint == dim_nu)

    verdict = bool(
        is_subalgebra and section_in_normal and bracket_condition and slice_condition
    )
    cohomogeneity = k_sec
    if not verdict:
        # sigma is not certified, so count on all of nu: dim nu minus the
        # principal orbit dimension of the slice representation of h_o
        (_, d, _), _ = generic_draws(rng, nu, act)
        cohomogeneity = dim_nu - d
    return PolarityReport(
        is_subalgebra=is_subalgebra,
        subalgebra_residual=sub_resid,
        section_in_normal=section_in_normal,
        section_residual=sec_resid,
        bracket_condition=bracket_condition,
        bracket_residual=br_resid,
        slice_condition=slice_condition,
        dim_normal=dim_nu,
        dim_section=int(k_sec),
        dim_isotropy_orbit=dim_orbit_xi,
        cohomogeneity=int(cohomogeneity),
        transitive=dim_nu == 0,
        verdict=verdict,
    )


def _member_rows(rd, stack, name):
    """Orthonormal coordinate rows spanning a (k, n+1, n+1) stack of
    su(1, n) matrices, at any scale of the stack; a stack of another shape,
    or with a matrix outside su(1, n), is a ValueError."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (rd.n + 1, rd.n + 1):
        raise ValueError(
            f"{name} must be a (k, {rd.n + 1}, {rd.n + 1}) stack, got shape {stack.shape}")
    resid = membership_residual(stack).max(initial=0.0)
    if resid > TOL_ALG:
        raise ValueError(
            f"{name} leaves su(1, {rd.n}) (relative residual {resid:.3g} > {TOL_ALG:g})")
    return orthonormal_rows(unit_rows(rd.coords_many(stack)))


def check_polarity(n, h, sigma, seed=0):
    """Evaluate the polarity criterion for a subalgebra h and claimed
    section tangent sigma inside p.

    The general entry point, for any h and sigma given as (k, n+1, n+1)
    stacks of su(1, n) matrices; checks, in coordinates of the root-space
    ONB:

    1. h is closed under the bracket (residual reported);
    2. sigma lies in the normal space nu = p minus the orbit tangent;
    3. <h, sigma + [sigma, sigma]> = 0;
    4. the isotropy algebra h_o = h cap k moves sigma orthogonally to
       itself, and at the first of two generic draws xi in sigma, whose
       ranks dim[h_o, xi] agree, the span sigma + [h_o, xi] fills nu.

    The residuals are the Frobenius norms PolarityReport describes.  The
    verdict is the conjunction; a transitive action (empty normal space)
    passes with the empty section only.  The cohomogeneity of a polar
    action is dim sigma; otherwise it is dim nu minus dim[h_o, xi] at two
    generic draws xi in nu, which must agree.  A negative seed is a
    ValueError.
    """
    if seed < 0:  # random.Random would draw with |seed|
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rd = build_root_decomposition(n)
    h_rows, sig_rows = _member_rows(rd, h, "h"), _member_rows(rd, sigma, "sigma")

    # 2. orbit tangent and normal space
    P_p = 0.5 * (np.eye(rd.dim) - rd.theta_matrix)
    orbit_rows = orthonormal_rows(h_rows @ P_p.T)
    p_rows = orthonormal_rows(P_p)
    nu_rows = orthonormal_rows(p_rows - (p_rows @ orbit_rows.T) @ orbit_rows)

    # 3. |P_h P_sigma| and |P_h [., .]| on sigma x sigma
    pairs = _bracket_values(_upper_pairs(rd.from_coords_many(sig_rows)), rd.dual_rows(h_rows))
    br_resid = math.hypot(float(np.linalg.norm(sig_rows @ h_rows.T)), _pair_norm(pairs))

    # 4. h_o = h cap k: the combinations of the rows of h with no p-part
    ho_mats = rd.from_coords_many(left_nullspace(h_rows @ P_p) @ h_rows)

    def act(xi):  # coordinate rows [T, xi] over T in h_o
        return rd.coords_many(-bracket(rd.from_coords_many(xi)[0], ho_mats))

    residuals = (_closure_residual(rd, h_rows), _section_residual(sig_rows, nu_rows),
                 br_resid, _slice_orthogonality(sig_rows, act))
    return _report(residuals, sig_rows, nu_rows, act, seed)


def check_spec(spec):
    """check_polarity for a PolarActionSpec, evaluated in the tangent space
    T_o CH^n = C^n; no su(1, n) element is formed.  The sampler draws with
    the spec's own seed; a negative one is a ValueError before any work.

    The spec is validated by _checked_inputs, which also measures the only
    brackets of h that can leave h ([q, q] and [q, w]).  With z = (z', u)
    split into the leading C^{n-m} and the trailing C^m on which q acts
    (m = n - 1 for family II, n - k for family I), a unit z stands for the
    unit p(z)/2 of p, and by the Iwasawa decomposition su(1, n) = k + a + n:

    - family II: h = q + b + w + g_2a meets k in h_o = q; an orthonormal
      basis of h has p-parts e_0 (B, when b = a), (0, w)/sqrt 2 and
      i e_0/sqrt 2 (Z/sqrt 2); sigma is e_0 (b = 0) plus (0, s);
    - family I: h = so(1, k) + q meets k in h_o = so(k) + q, and p in
      R^k = span(e_0, ..., e_{k-1}); sigma is i e_0 (k >= 1) plus (0, s);

    so nu is the complement of those p-parts, so(k) acts by rotations of
    the leading block and q by N on u.  The bracket of two section vectors
    lies in k, where its h-part is its h_o-part (whose norm is the slice
    orthogonality residual, by ad-invariance of the metric) plus, for
    family II only, its parts along the k-parts of X_w and Z: in closed
    form, |Re<w, s>|^2/4 from the pairs (B, s) when b = 0 and
    |Im<s, s'>|^2/8 over the ordered pairs of section vectors.

    The report agrees with check_polarity on the builder's (h, sigma) up to
    rounding in the residuals; its generic draws are taken in another basis
    of the same sigma, so they differ, but their ranks do not.
    """
    if spec.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {spec.seed}")
    n, fam_II = spec.n, spec.family == "II"
    q, sub_resid = _checked_inputs(spec)
    lead = n - spec.m
    e0 = np.eye(1, n, dtype=complex)

    def trailing(vectors):
        out = np.zeros((len(vectors), n), dtype=complex)
        out[:, lead:] = vectors
        return out

    section = trailing(spec.q_section.basis)
    S = real_rows(spec.q_section.basis)
    if fam_II:
        b_zero = spec.b_flag == "zero"
        hp = [trailing(spec.w.basis) / math.sqrt(2.0), 1j * e0 / math.sqrt(2.0)]
        hp = hp if b_zero else [e0] + hp
        sig = [e0, section] if b_zero else [section]
        omega = real_rows(1j * spec.q_section.basis) @ S.T  # Im<s, s'>
        extra = float(np.sum(omega ** 2)) / 8
        if b_zero:
            extra += float(np.sum((real_rows(spec.w.basis) @ S.T) ** 2)) / 4
    else:
        hp = [np.eye(spec.k, n, dtype=complex)]
        sig = [1j * e0, section] if spec.k >= 1 else [section]
        extra = 0.0
    hp, sig = real_rows(np.vstack(hp)), real_rows(np.vstack(sig))
    nu = complement_rows(orthonormal_rows(hp), 2 * n)

    rot_a, rot_b = np.triu_indices(lead, 1)  # so(k) of family I; none for family II
    rot = np.arange(len(rot_a))

    def act(xi):  # real rows [T, xi] over an orthonormal basis T of h_o
        z = xi.view(complex)
        out = np.zeros((len(rot) + len(q), n), dtype=complex)
        out[rot, rot_a] = 0.5 * z[rot_b]
        out[rot, rot_b] = -0.5 * z[rot_a]
        out[len(rot):, lead:] = q @ z[lead:]
        return real_rows(out)

    ortho = _slice_orthogonality(sig, act)
    br_resid = math.sqrt(float(np.sum((sig @ hp.T) ** 2)) + ortho ** 2 + extra)
    residuals = (sub_resid, _section_residual(sig, nu), br_resid, ortho)
    return _report(residuals, sig, nu, act, spec.seed)


# ---------------------------------------------------------------------------
# orbit equivalence
# ---------------------------------------------------------------------------


def orbit_equivalence_invariants(spec1, spec2):
    """Decide orbit equivalence of two constructed actions by their orbit
    tangents, where the congruence invariants allow it.

    Returns (answer, report) with answer in {'yes', 'no', 'undetermined'}.
    Family, k within family I, and the b-flag and the Kahler moduli of w
    within family II are complete obstructions.  Past them, two compact
    connected groups have the same orbits exactly when their orbit
    tangents span_R(q v) agree at generic v (Dadok).  At two generic unit
    v (``_linalg.generic_draws``), in C^m for family I and in w_2-perp for
    family II, q_2 v is set against A q_1 A* v in coordinates of that
    subspace, A the identity for family I and kahler.congruence_witness
    (carrying w_1 onto w_2) for family II.  Principal orbit dimensions (the
    ranks, the same at both draws) that differ give 'no'; a gap |P_1 - P_2|
    of the two tangents of at most TOL_TANGENT at both draws gives 'yes'; a
    larger gap is 'undetermined', as another unitary than A may still
    carry one set of orbits onto the other.  q enters only through q @ v,
    so a named u(m) is never formed.  Both specs go through
    ``_checked_inputs`` first, and each q is the one that check returns;
    the draws come from ``random.Random(0)``.
    """
    q1, q2 = [_checked_inputs(spec)[0] for spec in (spec1, spec2)]
    n = spec1.n
    if spec2.n != n:
        raise ValueError("actions live on different spaces")
    report = {"family": (spec1.family, spec2.family)}

    if spec1.family != spec2.family:
        report["reason"] = "family mismatch (mean curvature separates the families)"
        return "no", report

    fam_I, m = spec1.family == "I", spec1.m
    if fam_I:
        report["k"] = (spec1.k, spec2.k)
        if spec1.k != spec2.k:
            report["reason"] = "different totally geodesic real hyperbolic cores"
            return "no", report
        carry, sub = np.eye(m), RealSubspace.full(m)
    else:
        report["b"] = (spec1.b_flag, spec2.b_flag)
        if spec1.b_flag != spec2.b_flag:
            report["reason"] = "b-flags differ (mean curvature of the core orbits)"
            return "no", report
        dec1, dec2 = kahler.decompose(spec1.w), kahler.decompose(spec2.w)
        report["w_moduli"] = (dec1.moduli(), dec2.moduli())
        if not kahler.same_moduli(*report["w_moduli"]):
            report["reason"] = "Kahler moduli of w differ"
            return "no", report
        carry, sub = kahler.congruence_witness(dec1, dec2), spec2.w.perp()
    back = carry.conj().T
    to_sub = sub.basis.conj().T  # x @ to_sub, real part: coordinates of x along sub
    carried = carry.T @ to_sub  # the same for A x

    def tangents(act, coords):  # orthonormal coordinate rows of act(v) at the same two v for each q
        return generic_draws(random.Random(0), sub.basis,
                             lambda v: orthonormal_rows((act(v) @ coords).real))

    (_, d1, t1), (_, _, u1) = tangents(lambda v: q1 @ (back @ v), carried)
    (_, d2, t2), (_, _, u2) = tangents(lambda v: q2 @ v, to_sub)
    report["principal_orbit_dims"] = (d1, d2)
    if not fam_I:
        report["witness_unitarity"] = float(np.abs(carry @ back - np.eye(m)).max())
    on, via = ("", "") if fam_I else (" on w-perp", " through the witness")
    if d1 != d2:
        report["reason"] = f"q-actions{on} have different principal orbit dimensions"
        return "no", report
    gap = max(singular_rows(a - (a @ b.T) @ b)[0].max(initial=0.0)
              for a, b in ((t1, t2), (t2, t1), (u1, u2), (u2, u1)))
    report["tangent_gap"] = float(gap)
    if gap <= TOL_TANGENT:
        report["reason"] = f"q-orbits{on} share their tangents at every sample{via}"
        return "yes", report
    report["reason"] = f"q-orbit tangents{on} differ at a sample{via}; no other unitary is tried"
    return "undetermined", report


# ---------------------------------------------------------------------------
# moduli enumeration
# ---------------------------------------------------------------------------


@dataclass
class CatalogEntry:
    label: str
    spec: PolarActionSpec


def _family_I_entries(n):
    entries = []
    for k in range(n, -1, -1):
        m = n - k
        if m == 0:
            entries.append(CatalogEntry(
                label=f"I:k={k},q=0",
                spec=PolarActionSpec(n=n, family="I", k=k, q_type="u"),  # u(0) = 0
            ))
            continue
        eye = np.eye(m, dtype=complex)
        line = RealSubspace(m, [eye[0]])
        entries.append(CatalogEntry(
            label=f"I:k={k},q=u({m})",
            spec=PolarActionSpec(n=n, family="I", k=k, q_type="u", q_section=line),
        ))
        if m >= 2:
            entries.append(CatalogEntry(
                label=f"I:k={k},q=t({m})",
                spec=PolarActionSpec(n=n, family="I", k=k, q_type="t",
                                     q_section=RealSubspace(m, list(eye))),
            ))
    return entries


def _admissible_moduli(m, angle_grid):
    """All (angle, dim) multisets fitting in C^m: complex footprint
    m_0/2 + sum m_phi + m_{pi/2} <= m with even m_0, m_phi.  Repeats in
    the grid collapse; a grid angle outside (0, pi/2), NaN included, and
    any two neighbours in [0, *grid, pi/2] closer than GRID_MARGIN are a
    ValueError."""
    angles = sorted(set(float(a) for a in angle_grid))
    for a in angles:
        if not 0.0 < a < math.pi / 2:
            raise ValueError(f"grid angle {a!r} lies outside the open interval (0, pi/2); grid angles lie "
                             f"at least GRID_MARGIN = {GRID_MARGIN:g} from 0, pi/2 and each other")
    bounds = [0.0, *angles, math.pi / 2]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if not lo + GRID_MARGIN <= hi:  # not hi - lo: pi/2 - (pi/2 - GRID_MARGIN) rounds below it
            a, b = (lo, hi) if i == len(angles) else (hi, lo)
            raise ValueError(f"grid angle {a!r} lies within GRID_MARGIN = {GRID_MARGIN:g} "
                             f"of its neighbour {b!r} in [0, *grid, pi/2]")
    results = []

    def rec(idx, footprint, current):
        if idx == len(angles):
            # complex part: m_0 = 2 c0 with c0 complex dims
            for c0 in range(0, m - footprint + 1):
                for mpi2 in range(0, m - footprint - c0 + 1):
                    mod = list(current)
                    if c0:
                        mod.append((0.0, 2 * c0))
                    if mpi2:
                        mod.append((math.pi / 2, mpi2))
                    results.append(sorted(mod))
            return
        phi = angles[idx]
        pairs = 0
        while footprint + 2 * pairs <= m:
            cur = current + ([(phi, 2 * pairs)] if pairs else [])
            rec(idx + 1, footprint + 2 * pairs, cur)
            pairs += 1

    rec(0, 0, [])
    return results


def normalizer_section(w):
    """The section of the named normalizer on w-perp, one line per factor of w-perp, read off
    decompose(w), the split the normalizer is built from; a split of w-perp agrees only to eps/gap."""
    m, B = w.ambient_complex_dim, w.basis
    rows = [*complement_rows(orthonormal_rows(B), m)[:1]]  # a line of the complex factor (C w)-perp
    for phi, sub in kahler.decompose(w).factors:  # v, the first row: no line at 0, J v at pi/2,
        Jv = 1j * sub.basis[:1]  # and in between the part outside w of J pi_w J v, the frame line
        Jp = real_rows(1j * (real_rows(Jv) @ real_rows(B).T) @ B)  # sin(phi/2) e - i cos(phi/2) f
        rows.extend(() if phi == 0.0 else Jv if phi == math.pi / 2 else w._outside(Jp).view(complex))
    return RealSubspace(m, rows)


def _family_II_entries(n, angle_grid):
    entries = []
    for moduli in _admissible_moduli(n - 1, angle_grid):
        w = kahler.canonical_subspace(n - 1, moduli)
        s = normalizer_section(w)
        for b_flag in ("full", "zero"):
            if b_flag == "full" and w.dim == 2 * (n - 1):
                continue  # transitive action, excluded from the catalog
            label = f"II:b={b_flag},w={[(round(a, 6), d) for a, d in moduli]}"
            entries.append(CatalogEntry(
                label=label,
                spec=PolarActionSpec(n=n, family="II", b_flag=b_flag, w=w,
                                     q_type="normalizer", q_section=s),
            ))
    return entries


def enumerate_moduli(n, angle_grid=()):
    """One representative per structural moduli class.

    Family I runs over k with q drawn from the small fixed table (trivial,
    full unitary, maximal torus); family II runs over the b-flag and the
    admissible Kahler moduli of w built from {0, pi/2} plus the angle grid,
    always with the full normalizer as q.  Every spec names its q
    (PolarActionSpec.q_type).

    By Theorem A of arXiv 1208.2823 no two entries are orbit equivalent, so
    the catalog has no dedupe: two family I entries differ in k, or are
    u(m) and t(m), whose principal orbits have dimensions 2m - 1 and m; two
    family II entries differ in b-flag, or their moduli differ in a
    dimension or in an angle by at least GRID_MARGIN (_admissible_moduli),
    far above kahler.TOL_ANGLE, so kahler.decompose keeps their factors
    apart.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _family_I_entries(n) + _family_II_entries(n, angle_grid)
