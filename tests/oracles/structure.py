"""The structure-constant route to each family's flow, kept apart from the
closed forms in :mod:`solitonlab.systems` so the two can be checked
against each other.

``decomposition`` encodes a two-summands or dancer_wang ansatz as
structure-constant data, and ``generic_rhs`` assembles the flow from the
Ricci eigenvalues of that data (:func:`solitonlab.geometry.ricci_eigenvalues`)
and the general soliton equations.  ``killing_curvature_bound`` and
``decomposition_to_dict`` are the Killing bound on scalar curvature and the
JSON form of a decomposition.  No command runs any of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from solitonlab.geometry import IsotropyDecomposition, _check_x, ricci_eigenvalues
from solitonlab.systems import DancerWangAnsatz, SolitonState, TwoSummandsAnsatz, flow_ansatz


def decomposition(a: TwoSummandsAnsatz | DancerWangAnsatz) -> IsotropyDecomposition:
    """Structure-constant data reproducing the ansatz's Ricci terms."""
    if isinstance(a, TwoSummandsAnsatz):
        t = np.zeros((2, 2, 2))
        for perm in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            t[perm] = 4.0 * a.A3
        b = (2.0 * a.A1 / a.d1 + 4.0 * a.A3 / a.d1, 2.0 * a.A2 / a.d2)
        return IsotropyDecomposition(d=(a.d1, a.d2), b=b, triples=t)
    if isinstance(a, DancerWangAnsatz):
        s = a.m + 1
        t = np.zeros((s, s, s))
        for i in range(1, s):
            v = a.d[i - 1] * a.q[i - 1] ** 2
            for perm in ((0, i, i), (i, 0, i), (i, i, 0)):
                t[perm] = v
        b = (float(sum(di * qi**2 for di, qi in zip(a.d, a.q))),) + tuple(2.0 * pi for pi in a.p)
        return IsotropyDecomposition(d=a.dims, b=b, triples=t)
    raise TypeError(f"no decomposition for {type(a)!r}; pass flow_ansatz(ansatz)")


@dataclass
class StateDerivative:
    """d/dt of a SolitonState: (fdot_i, fddot_i, udot, uddot)."""

    df: np.ndarray
    ddf: np.ndarray
    du: float
    udd: float


def _dot(c, x):
    """c_0 x_0 + c_1 x_1 + ..., left to right."""
    return sum(ci * xi for ci, xi in zip(c, x))


def generic_rhs(state: SolitonState, ansatz, eps: float) -> StateDerivative:
    """The flow from the general soliton equations, with the Ricci term
    from ``ricci_eigenvalues`` on the ansatz's decomposition (metric
    scalings x_i = f_i^2)."""
    if np.any(state.f <= 0.0):
        raise ValueError("metric components must be positive to evaluate the flow")
    rates = ricci_eigenvalues(decomposition(flow_ansatz(ansatz)), state.f**2)
    d = ansatz.dims
    z = state.df / state.f
    H = -state.du + _dot(d, z)
    dz = -H * z + eps / 2.0 + rates
    ddf = state.f * (dz + z * z)
    udd = float(_dot(d, dz + z * z)) - eps / 2.0
    return StateDerivative(df=state.df.copy(), ddf=ddf, du=state.du, udd=udd)


def killing_curvature_bound(dec: IsotropyDecomposition, x) -> float:
    """Upper bound (1/2) sum d_i b_i / x_i on the scalar curvature.

    The bracket term of the scalar curvature is nonpositive, so this bound
    holds for every valid decomposition and scaling.
    """
    x = _check_x(dec, x)
    return 0.5 * float(np.dot(np.asarray(dec.d, float) * np.asarray(dec.b), 1.0 / x))


def decomposition_to_dict(dec: IsotropyDecomposition) -> dict:
    """JSON-ready form storing one representative per unordered triple."""
    summands = []
    for i in range(dec.s):
        entry = {"dim": int(dec.d[i]), "b": float(dec.b[i])}
        entry["c"] = float(dec.c[i]) if dec.c is not None else None
        summands.append(entry)
    triples = []
    for i in range(dec.s):
        for j in range(i, dec.s):
            for k in range(j, dec.s):
                v = float(dec.triples[i, j, k])
                if v != 0.0:
                    triples.append({"i": i, "j": j, "k": k, "value": v})
    out = {"summands": summands, "triples": triples}
    if dec.metadata:
        out["metadata"] = dec.metadata
    return out
