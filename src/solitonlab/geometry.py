"""Curvature of compact homogeneous spaces from structure-constant data.

A principal orbit is described by the dimensions ``d_i`` of the summands of
its isotropy representation, the Killing coefficients ``b_i`` (defined by
``B|p_i = -b_i * b|p_i`` for the Killing form B and the chosen biinvariant
product b) and the totally symmetric, nonnegative structure constants
``[ijk]``.  A diagonal invariant metric is a positive scale vector x, and
scalar curvature / Ricci eigenvalues are closed-form rational expressions
in (d, b, [ijk], x).

The test suite checks these closed forms against a brute-force
computation from explicit Lie-algebra bases; the package itself holds only
what the ``curvature`` command runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError, Report, _field, _need, _only, _read_json

__all__ = [
    "IsotropyDecomposition",
    "ValidationReport",
    "scalar_curvature",
    "ricci_eigenvalues",
    "validate",
    "load_decomposition",
]


@dataclass(frozen=True)
class IsotropyDecomposition:
    """Structure-constant data of a homogeneous space with s summands.

    ``triples[i, j, k]`` stores the full symmetric tensor; ``c`` holds the
    optional Casimir constants (None when unknown -- the soliton systems
    never need them).  ``metadata`` records the normalization convention of
    the biinvariant product b, which the numbers silently depend on.
    """

    d: tuple[int, ...]
    b: tuple[float, ...]
    triples: np.ndarray
    c: tuple[float, ...] | None = None
    metadata: str = ""

    def __post_init__(self):
        t = np.asarray(self.triples, dtype=float)
        object.__setattr__(self, "triples", t)
        s = len(self.d)
        if t.shape != (s, s, s):
            raise ValueError(f"triples tensor must have shape {(s, s, s)}, got {t.shape}")
        if len(self.b) != s or (self.c is not None and len(self.c) != s):
            raise ValueError("d, b, c must have one entry per summand")

    @property
    def s(self) -> int:
        return len(self.d)


class ValidationReport(Report):
    """Report-only result of :func:`validate`; never raised."""

    symmetry_violations: list[str]
    negativity_violations: list[str]
    wang_ziller_residuals: list[float] | None

    @property
    def wang_ziller_violations(self) -> list[str]:
        """Each Wang-Ziller residual not below 1e-10 in size."""
        residuals = enumerate(self.wang_ziller_residuals or ())
        return [f"summand {i}: residual {r!r} not below 1e-10" for i, r in residuals if not abs(r) < 1e-10]

    @property
    def ok(self) -> bool:
        return not (self.symmetry_violations or self.negativity_violations or self.wang_ziller_violations)


def _check_x(dec: IsotropyDecomposition, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dec.s,):
        raise ConfigError(f"scaling vector has {x.size} entries, decomposition has {dec.s} summands")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ConfigError("metric scalings must be finite and strictly positive")
    return x


def scalar_curvature(dec: IsotropyDecomposition, x) -> float:
    """Scalar curvature of the diagonal metric ``x_1 b|p_1 + ... + x_s b|p_s``."""
    x = _check_x(dec, x)
    inv = 1.0 / x
    bracket = np.einsum("ijk,i,j,k->", dec.triples, inv, inv, x)
    linear = float(np.dot(np.asarray(dec.d, dtype=float) * np.asarray(dec.b), inv))
    return -0.25 * float(bracket) + 0.5 * linear


def ricci_eigenvalues(dec: IsotropyDecomposition, x) -> np.ndarray:
    """Per-summand eigenvalues of the Ricci endomorphism at scalings x."""
    x = _check_x(dec, x)
    inv = 1.0 / x
    d = np.asarray(dec.d, dtype=float)
    b = np.asarray(dec.b, dtype=float)
    # sum_{j,k} [ijk] x_k / (x_i x_j)  and  sum_{j,k} [ijk] x_i / (x_j x_k)
    mixed = inv * np.einsum("ijk,j,k->i", dec.triples, inv, x)
    plain = x * np.einsum("ijk,j,k->i", dec.triples, inv, inv)
    return 0.5 * b * inv - mixed / (2.0 * d) + plain / (4.0 * d)


def validate(dec: IsotropyDecomposition) -> ValidationReport:
    """Check symmetry and sign constraints, each to a relative 1e-12, plus
    the Wang-Ziller identity.

    The Wang-Ziller residual of summand i is
    ``sum_{j,k} [ijk] - d_i (b_i - 2 c_i)``; it is only computed when the
    Casimir constants are present.
    """
    report = ValidationReport(symmetry_violations=[], negativity_violations=[])
    tol = 1e-12
    t = dec.triples
    s = dec.s
    for i in range(s):
        for j in range(s):
            for k in range(s):
                v = t[i, j, k]
                for perm in ((i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    if abs(t[perm] - v) > tol * (1.0 + abs(v)):
                        report.symmetry_violations.append(
                            f"[{i}{j}{k}]={v!r} != [{perm[0]}{perm[1]}{perm[2]}]={t[perm]!r}"
                        )
                if v < -tol:
                    report.negativity_violations.append(f"[{i}{j}{k}]={v!r} < 0")
    for i, bi in enumerate(dec.b):
        if bi < -tol:
            report.negativity_violations.append(f"b_{i}={bi!r} < 0")
    if dec.c is not None:
        report.wang_ziller_residuals = [
            float(np.sum(t[i])) - dec.d[i] * (dec.b[i] - 2.0 * dec.c[i]) for i in range(s)
        ]
    return report


def load_decomposition(source) -> IsotropyDecomposition:
    """Build a decomposition from a JSON document (path, file object or dict).

    The document holds ``metadata``, a list of ``summands`` (each ``dim``,
    ``b`` and optionally ``c``) and a list of ``triples`` (each ``i``,
    ``j``, ``k`` and ``value``), and no other field.  Each dim is an
    integer >= 1 and each b, c and value a finite number.  Summand indices
    in the triples list are 0-based; each unordered triple appears once and
    is symmetrized on load.  A field missing or malformed is a ConfigError
    naming it.
    """
    doc = _read_json(source, "decomposition")
    _only(doc, ("metadata", "summands", "triples"))
    summands = _need(doc, "summands", list)
    for i, s in enumerate(summands):
        _only(s, ("dim", "b", "c"), f"summands[{i}]")
    d = tuple(_need(s, "dim", int, f"summands[{i}]", least=1) for i, s in enumerate(summands))
    b = tuple(_need(s, "b", float, f"summands[{i}]") for i, s in enumerate(summands))
    cs = [s.get("c") for s in summands]
    c = None if None in cs else tuple(_field(v, f"summands[{i}].c") for i, v in enumerate(cs))
    n = len(d)
    triples = np.zeros((n, n, n))
    seen = set()
    for t, item in enumerate(_field(doc.get("triples", []), "triples", list)):
        ctx = f"triples[{t}]"
        _only(item, ("i", "j", "k", "value"), ctx)
        i, j, k = (_need(item, key, int, ctx) for key in "ijk")
        v = _need(item, "value", float, ctx)
        for name, index in zip("ijk", (i, j, k)):
            if not 0 <= index < n:
                raise ConfigError(f"field '{ctx}.{name}' is out of range: a summand index is 0 to {n - 1}")
        key = tuple(sorted((i, j, k)))
        if key in seen:
            raise ConfigError(f"field '{ctx}' duplicates the triple {key}")
        seen.add(key)
        for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            triples[perm] = v
    return IsotropyDecomposition(
        d=d, b=b, triples=triples, c=c, metadata=str(doc.get("metadata", ""))
    )
