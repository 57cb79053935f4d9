"""Explicit compact Lie algebras and a basis-level curvature oracle.

Everything in :mod:`solitonlab.geometry` is a closed form in structure
constants.  This module recomputes the same quantities the slow, direct
way -- from an explicit orthonormal basis of a concrete Lie algebra, using
only brackets, projections and the Killing form -- so the closed forms can
be trusted.  It also extracts structure-constant data from a basis, which
is how the two-summands constants of the quaternionic Hopf fibrations are
produced.

Test code: no command runs it.  The shipped ``hopf_sp1_sp2.json`` was
extracted with it, and ``tests/test_lie_oracle.py`` compares the shipped
decomposition files with a fresh extraction.
"""

from __future__ import annotations

import numpy as np

from solitonlab.geometry import IsotropyDecomposition

__all__ = [
    "ExplicitHomogeneousSpace",
    "flat_torus",
    "su2",
    "su2su2_product",
    "su2su2_diag_u1",
    "hopf_space",
    "hopf_fibre_space",
    "hopf_two_summands_constants",
    "named_space",
]

# Quaternion units in the standard complex 2x2 representation.
_Q1 = np.eye(2, dtype=complex)
_QI = np.array([[1j, 0], [0, -1j]])
_QJ = np.array([[0, 1], [-1, 0]], dtype=complex)
_QK = np.array([[0, 1j], [1j, 0]])
_UNITS = (_Q1, _QI, _QJ, _QK)
_IM_UNITS = (_QI, _QJ, _QK)


class ExplicitHomogeneousSpace:
    """A reductive decomposition g = k + p_1 + ... + p_s over an explicit basis.

    The basis is orthonormal with respect to the chosen biinvariant product
    b, ordered k-part first; ``bracket[a, b, c]`` holds b([E_a, E_b], E_c).
    """

    def __init__(self, bracket, k_count, p_block_sizes, name=""):
        self.bracket = np.asarray(bracket, dtype=float)
        self.name = name
        self.k_count = int(k_count)
        self.p_blocks = []
        start = self.k_count
        for size in p_block_sizes:
            self.p_blocks.append(list(range(start, start + size)))
            start += size
        if start != self.bracket.shape[0]:
            raise ValueError("block sizes do not cover the basis")
        self._killing = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_matrices(cls, k_elems, p_block_elems, inner, name=""):
        """Build from explicit matrices; basis must be orthogonal by design."""
        raw = list(k_elems)
        sizes = []
        for block in p_block_elems:
            raw.extend(block)
            sizes.append(len(block))
        basis = [m / np.sqrt(inner(m, m)) for m in raw]
        n = len(basis)
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        if not np.allclose(gram, np.eye(n), atol=1e-12):
            raise ValueError(f"basis of {name!r} is not b-orthonormal")
        bracket = np.zeros((n, n, n))
        for a in range(n):
            for b in range(a + 1, n):
                m = basis[a] @ basis[b] - basis[b] @ basis[a]
                coeff = np.array([inner(m, e) for e in basis])
                resid = m - sum(c * e for c, e in zip(coeff, basis))
                if inner(resid, resid).real > 1e-20 * max(1.0, inner(m, m).real):
                    raise ValueError(f"bracket of {name!r} leaves the basis span")
                bracket[a, b, :] = coeff
                bracket[b, a, :] = -coeff
        space = cls(bracket, len(k_elems), sizes, name=name)
        space.basis = basis
        return space

    # -- basic invariants ------------------------------------------------

    @property
    def dim(self):
        return self.bracket.shape[0]

    @property
    def p_indices(self):
        return [a for block in self.p_blocks for a in block]

    @property
    def dims(self):
        return tuple(len(block) for block in self.p_blocks)

    def killing(self):
        """Killing form matrix B_ab = tr(ad_a ad_b) in the orthonormal basis."""
        if self._killing is None:
            self._killing = np.einsum("acd,bdc->ab", self.bracket, self.bracket)
        return self._killing

    def _block_of(self):
        blk = {}
        for i, block in enumerate(self.p_blocks):
            for a in block:
                blk[a] = i
        return blk

    # -- brute-force curvature --------------------------------------------

    def scalar_curvature(self, x):
        """Orthonormal-basis scalar curvature sum for the metric sum x_i b|p_i."""
        x = np.asarray(x, dtype=float)
        B = self.killing()
        blk = self._block_of()
        pidx = self.p_indices
        total = 0.0
        for a in pidx:
            xa = x[blk[a]]
            for b in pidx:
                xb = x[blk[b]]
                # |[e_a, e_b]_p|^2 in the scaled metric
                proj = sum(x[blk[c]] * self.bracket[a, b, c] ** 2 for c in pidx)
                total += proj / (xa * xb)
        linear = sum(B[a, a] / x[blk[a]] for a in pidx)
        return -0.25 * total - 0.5 * linear

    def ricci(self, x, return_all=False):
        """Per-summand Ricci eigenvalues via the basis sum.

        Evaluates the Ricci quadratic form on each scaled basis vector and
        checks that it is constant across each summand before averaging; a
        non-constant value means the blocks are not actually irreducible
        summands of an invariant metric.
        """
        x = np.asarray(x, dtype=float)
        B = self.killing()
        blk = self._block_of()
        pidx = self.p_indices
        values = {}
        for a in pidx:
            xa = x[blk[a]]
            term1 = 0.0
            for b in pidx:
                xb = x[blk[b]]
                proj = sum(x[blk[c]] * self.bracket[a, b, c] ** 2 for c in pidx)
                term1 += proj / (xa * xb)
            term2 = B[a, a] / xa
            term3 = 0.0
            for b in pidx:
                for c in pidx:
                    term3 += self.bracket[b, c, a] ** 2 * xa / (x[blk[b]] * x[blk[c]])
            values[a] = -0.5 * term1 - 0.5 * term2 + 0.25 * term3
        out = []
        for block in self.p_blocks:
            vals = [values[a] for a in block]
            if max(vals) - min(vals) > 1e-9 * (1.0 + abs(vals[0])):
                raise ValueError(f"Ricci form is not scalar on summand {block} of {self.name!r}")
            out.append(float(np.mean(vals)))
        if return_all:
            return np.array(out), values
        return np.array(out)

    # -- structure-constant extraction ------------------------------------

    def extract_decomposition(self, metadata="") -> IsotropyDecomposition:
        B = self.killing()
        s = len(self.p_blocks)
        b_coeffs = []
        for block in self.p_blocks:
            vals = [-B[a, a] for a in block]
            if max(vals) - min(vals) > 1e-9 * (1.0 + abs(vals[0])):
                raise ValueError("Killing form is not scalar on a summand")
            b_coeffs.append(float(np.mean(vals)))
        triples = np.zeros((s, s, s))
        for i, bi in enumerate(self.p_blocks):
            for j, bj in enumerate(self.p_blocks):
                for k, bk in enumerate(self.p_blocks):
                    triples[i, j, k] = sum(
                        self.bracket[a, b, c] ** 2 for a in bi for b in bj for c in bk
                    )
        c_consts = []
        for block in self.p_blocks:
            diag = []
            for a in block:
                diag.append(
                    sum(
                        self.bracket[z, a, e] ** 2
                        for z in range(self.k_count)
                        for e in range(self.dim)
                    )
                )
            if diag and max(diag) - min(diag) > 1e-9 * (1.0 + abs(diag[0])):
                raise ValueError("Casimir operator is not scalar on a summand")
            c_consts.append(float(np.mean(diag)) if diag else 0.0)
        return IsotropyDecomposition(
            d=self.dims,
            b=tuple(b_coeffs),
            triples=triples,
            c=tuple(c_consts),
            metadata=metadata,
        )


# -- concrete spaces ------------------------------------------------------


def _factor_inner(split, alpha, beta):
    """b = alpha * v + beta * v on a two-factor block matrix, v = -(1/2) Re tr."""

    def inner(X, Y):
        t1 = -0.5 * np.trace(X[:split, :split] @ Y[:split, :split]).real
        t2 = -0.5 * np.trace(X[split:, split:] @ Y[split:, split:]).real
        return alpha * t1 + beta * t2

    return inner


def _sp_diag(n, slot, unit):
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = unit
    return m


def _sp_offdiag(n, row, col, unit):
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[2 * row : 2 * row + 2, 2 * col : 2 * col + 2] = unit
    m[2 * col : 2 * col + 2, 2 * row : 2 * row + 2] = -unit.conj().T
    return m


def _embed(block, offset, total):
    m = np.zeros((total, total), dtype=complex)
    m[offset : offset + block.shape[0], offset : offset + block.shape[1]] = block
    return m


def flat_torus(s=2, dims=None):
    """Abelian data: all brackets and Killing coefficients vanish."""
    dims = dims or tuple([1] * s)
    n = sum(dims)
    return ExplicitHomogeneousSpace(np.zeros((n, n, n)), 0, dims, name=f"torus{dims}")


def su2():
    """su(2) with b = -(1/2) Re tr in the defining representation.

    This normalization gives the unit round 3-sphere at x = 1.
    """
    elems = [[u] for u in _IM_UNITS]
    inner = lambda X, Y: -0.5 * np.trace(X @ Y).real
    return ExplicitHomogeneousSpace.from_matrices([], [list(_IM_UNITS)], inner, name="su2")


def su2su2_product():
    """su(2) + su(2), trivial isotropy, one summand per factor."""
    total = 4
    p1 = [_embed(u, 0, total) for u in _IM_UNITS]
    p2 = [_embed(u, 2, total) for u in _IM_UNITS]
    return ExplicitHomogeneousSpace.from_matrices(
        [], [p1, p2], _factor_inner(2, 1.0, 1.0), name="su2su2_product"
    )


def su2su2_diag_u1():
    """(SU(2) x SU(2)) / diagonal U(1): three summands of dims (1, 2, 2).

    The mixed structure constants are nonzero here, which is what makes it
    a useful oracle target.
    """
    total = 4
    up = [_embed(u, 0, total) for u in _IM_UNITS]
    low = [_embed(u, 2, total) for u in _IM_UNITS]
    k = [up[2] + low[2]]
    p_a = [up[2] - low[2]]
    p_b = [up[0], up[1]]
    p_c = [low[0], low[1]]
    return ExplicitHomogeneousSpace.from_matrices(
        k, [p_a, p_b, p_c], _factor_inner(2, 1.0, 1.0), name="su2su2_diag_u1"
    )


def hopf_space(m=1, alpha=1.0, beta=1.0):
    """Principal orbit of the quaternionic Hopf bundle, as a two-summand space.

    G = Sp(1) x Sp(m+1) acting on S^{4m+3} with K = Sp(1) x Sp(m); the first
    summand is the collapsing-3-sphere direction, the second the H^m block.
    The biinvariant product is alpha * v on sp(1) and beta * v on sp(m+1)
    with v = -(1/2) Re tr.
    """
    n = m + 1
    total = 2 + 2 * n
    emb1 = lambda u: _embed(u, 0, total)

    def emb2(mat):
        return _embed(mat, 2, total)

    k_elems = [emb1(u) + emb2(_sp_diag(n, 0, u)) for u in _IM_UNITS]
    for slot in range(1, n):
        k_elems.extend(emb2(_sp_diag(n, slot, u)) for u in _IM_UNITS)
    for row in range(1, n):
        for col in range(row + 1, n):
            k_elems.extend(emb2(_sp_offdiag(n, row, col, u)) for u in _UNITS)
    kappa = alpha / beta
    p1 = [emb1(u) - kappa * emb2(_sp_diag(n, 0, u)) for u in _IM_UNITS]
    p2 = []
    for col in range(1, n):
        p2.extend(emb2(_sp_offdiag(n, 0, col, u)) for u in _UNITS)
    return ExplicitHomogeneousSpace.from_matrices(
        k_elems, [p1, p2], _factor_inner(2, alpha, beta), name=f"hopf_sp1_sp{n}"
    )


def hopf_fibre_space(m=1, alpha=1.0, beta=1.0):
    """The collapsing sphere H/K of the same bundle as its own one-summand space."""
    n = m + 1
    total = 2 + 2 * n
    emb1 = lambda u: _embed(u, 0, total)
    emb2 = lambda mat: _embed(mat, 2, total)
    k_elems = [emb1(u) + emb2(_sp_diag(n, 0, u)) for u in _IM_UNITS]
    kappa = alpha / beta
    p1 = [emb1(u) - kappa * emb2(_sp_diag(n, 0, u)) for u in _IM_UNITS]
    return ExplicitHomogeneousSpace.from_matrices(
        k_elems, [p1], _factor_inner(2, alpha, beta), name=f"hopf_fibre_sp{n}"
    )


def two_summands_constants_raw(space: ExplicitHomogeneousSpace):
    """Read off (A1, A2, A3) of the two-summands system from a decomposition.

    Requires the mixed triple [112] to vanish, which holds whenever the
    first summand lies inside the singular isotropy algebra.
    """
    dec = space.extract_decomposition()
    if dec.s != 2:
        raise ValueError("two-summands constants need exactly two summands")
    t = dec.triples
    if abs(t[0, 0, 1]) > 1e-12:
        raise ValueError("mixed triple [112] does not vanish")
    d1, d2 = dec.d
    a1 = d1 * dec.b[0] / 2.0 - t[0, 0, 0] / 4.0 - t[0, 1, 1] / 2.0
    a2 = d2 * dec.b[1] / 2.0 - t[1, 1, 1] / 4.0
    a3 = t[0, 1, 1] / 4.0
    return float(a1), float(a2), float(a3)


def hopf_two_summands_constants(m=1):
    """Two-summands constants of the quaternionic Hopf bundle over HP^m.

    Normalization: the collapsing sphere has constant curvature 1 (so
    A1 = d1 (d1 - 1)) and the round unit sphere sits at f1 = f2 = 1.  The
    raw constants are extracted from an explicit basis and then rescaled
    exactly; the round normalization is selected as the metric whose
    Einstein constant equals dim(orbit) - 1, which rules out the squashed
    Einstein sphere.
    """
    d1, d2 = 3, 4 * m
    a1_raw, a2_raw, a3_raw = two_summands_constants_raw(hopf_space(m))
    s2 = d1 * (d1 - 1) / a1_raw  # f1 rescale making the fibre curvature 1
    a1 = d1 * (d1 - 1)
    # Roundness at (1, 1): (A1 + A3 r^4/s^2)/d1 = (A2 r^2 - 2 A3 r^4/s^2)/d2,
    # a quadratic in r^2 whose two roots are the round and squashed Einstein
    # metrics on the total space.
    qa = (a3_raw / s2) * (1.0 / d1 + 2.0 / d2)
    qb = -a2_raw / d2
    qc = a1 / d1
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        raise ValueError("no Einstein metric found in the diagonal family")
    target = d1 + d2 - 1  # Einstein constant of the unit round sphere
    best = None
    for root in ((-qb + np.sqrt(disc)) / (2 * qa), (-qb - np.sqrt(disc)) / (2 * qa)):
        if root <= 0:
            continue
        a2, a3 = a2_raw * root, a3_raw * root * root / s2
        einstein = (a1 + a3) / d1
        if best is None or abs(einstein - target) < best[0]:
            best = (abs(einstein - target), a2, a3)
    if best is None or best[0] > 1e-8:
        raise ValueError("round sphere not found among the Einstein roots")
    return d1, d2, float(a1), float(best[1]), float(best[2])


_NAMED = {
    "torus2": lambda: flat_torus(2),
    "su2": su2,
    "su2su2_product": su2su2_product,
    "su2su2_diag_u1": su2su2_diag_u1,
    "hopf_m1": lambda: hopf_space(1),
    "hopf_m2": lambda: hopf_space(2),
}


def named_space(name: str) -> ExplicitHomogeneousSpace:
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown space {name!r}; choices: {sorted(_NAMED)}") from None
