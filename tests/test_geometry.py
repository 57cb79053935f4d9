import json

import numpy as np
import pytest

from solitonlab.geometry import (
    IsotropyDecomposition,
    load_decomposition,
    ricci_eigenvalues,
    scalar_curvature,
    validate,
)

from conftest import decomposition_path
from oracles.structure import decomposition_to_dict, killing_curvature_bound


def random_decomposition(rng, s=None, abelian=False):
    s = s or rng.integers(1, 6)
    d = tuple(int(v) for v in rng.integers(1, 7, size=s))
    if abelian:
        b = (0.0,) * s
        triples = np.zeros((s, s, s))
    else:
        b = tuple(float(v) for v in rng.uniform(0.0, 10.0, size=s))
        triples = np.zeros((s, s, s))
        for i in range(s):
            for j in range(i, s):
                for k in range(j, s):
                    v = float(rng.uniform(0.0, 3.0))
                    for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                        triples[perm] = v
    return IsotropyDecomposition(d=d, b=b, triples=triples)


def test_abelian_data_is_flat():
    rng = np.random.default_rng(0)
    dec = random_decomposition(rng, s=3, abelian=True)
    x = rng.uniform(0.5, 4.0, size=3)
    assert scalar_curvature(dec, x) == 0.0
    assert np.all(ricci_eigenvalues(dec, x) == 0.0)


def test_single_summand_without_bracket_term():
    dec = IsotropyDecomposition(d=(5,), b=(3.0,), triples=np.zeros((1, 1, 1)))
    # s = d * b / (2 x) when the bracket term vanishes
    assert scalar_curvature(dec, [2.0]) == pytest.approx(5 * 3.0 / (2 * 2.0), rel=1e-15)


def test_trace_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        dec = random_decomposition(rng)
        x = rng.uniform(0.2, 5.0, size=dec.s)
        s = scalar_curvature(dec, x)
        r = ricci_eigenvalues(dec, x)
        assert np.dot(dec.d, r) == pytest.approx(s, rel=1e-12, abs=1e-12)


def test_scaling_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dec = random_decomposition(rng)
        x = rng.uniform(0.2, 5.0, size=dec.s)
        lam = float(rng.uniform(0.1, 10.0))
        assert scalar_curvature(dec, lam * x) == pytest.approx(
            scalar_curvature(dec, x) / lam, rel=1e-12
        )
        assert ricci_eigenvalues(dec, lam * x) == pytest.approx(
            ricci_eigenvalues(dec, x) / lam, rel=1e-12
        )


def test_killing_bound_dominates_scalar_curvature():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dec = random_decomposition(rng)
        x = rng.uniform(0.2, 5.0, size=dec.s)
        assert scalar_curvature(dec, x) <= killing_curvature_bound(dec, x) + 1e-12


def test_dimension_mismatch_rejected():
    dec = IsotropyDecomposition(d=(2, 3), b=(1.0, 1.0), triples=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="summands"):
        scalar_curvature(dec, [1.0])
    with pytest.raises(ValueError, match="positive"):
        ricci_eigenvalues(dec, [1.0, -1.0])


def test_validate_clean_report():
    dec = load_decomposition(decomposition_path("su2su2_diag_u1.json"))
    report = validate(dec)
    assert report.ok
    assert not report.symmetry_violations
    assert report.wang_ziller_residuals == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_validate_flags_asymmetric_tensor():
    triples = np.zeros((2, 2, 2))
    triples[0, 1, 1] = 1.0  # deliberately not symmetrized
    dec = IsotropyDecomposition(d=(1, 2), b=(1.0, 1.0), triples=triples)
    report = validate(dec)
    assert report.symmetry_violations
    assert not report.ok


def test_validate_flags_negative_entries():
    triples = np.full((1, 1, 1), -0.5)
    dec = IsotropyDecomposition(d=(3,), b=(-1.0,), triples=triples)
    report = validate(dec)
    assert len(report.negativity_violations) == 2


def test_wang_ziller_residual_tracks_casimir_perturbation():
    dec = load_decomposition(decomposition_path("su2su2_diag_u1.json"))
    base = validate(dec).wang_ziller_residuals
    gamma = 0.37
    for i in range(dec.s):
        c = list(dec.c)
        c[i] += gamma
        perturbed = IsotropyDecomposition(d=dec.d, b=dec.b, triples=dec.triples, c=tuple(c))
        res = validate(perturbed).wang_ziller_residuals
        # residual_i = sum [ijk] - d_i (b_i - 2 c_i) moves by 2 d_i gamma
        assert res[i] - base[i] == pytest.approx(2.0 * dec.d[i] * gamma, abs=1e-12)


def test_json_round_trip():
    dec = load_decomposition(decomposition_path("hopf_sp1_sp2.json"))
    doc = decomposition_to_dict(dec)
    again = load_decomposition(doc)
    assert again.d == dec.d
    assert again.b == pytest.approx(dec.b)
    assert np.allclose(again.triples, dec.triples)
    assert again.c == pytest.approx(dec.c)
    assert again.metadata == dec.metadata


def test_loader_rejects_duplicate_and_out_of_range_triples():
    doc = {
        "summands": [{"dim": 1, "b": 0.0}, {"dim": 2, "b": 1.0}],
        "triples": [
            {"i": 0, "j": 1, "k": 1, "value": 1.0},
            {"i": 1, "j": 1, "k": 0, "value": 2.0},
        ],
    }
    with pytest.raises(ValueError, match="duplicate"):
        load_decomposition(doc)
    doc = {"summands": [{"dim": 1, "b": 0.0}], "triples": [{"i": 0, "j": 0, "k": 3, "value": 1.0}]}
    with pytest.raises(ValueError, match="range"):
        load_decomposition(doc)


def test_loader_requires_summands():
    with pytest.raises(ValueError, match="missing field 'summands'"):
        load_decomposition({"triples": []})
