"""Brute-force basis oracle against the closed-form curvature expressions."""

import numpy as np
import pytest

from solitonlab.geometry import load_decomposition, ricci_eigenvalues, scalar_curvature, validate

from conftest import decomposition_path
from oracles import lie_bases as lb


@pytest.mark.parametrize("name", ["su2", "su2su2_product", "su2su2_diag_u1", "hopf_m1"])
def test_closed_forms_match_basis_sums(name):
    space = lb.named_space(name)
    dec = space.extract_decomposition()
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.uniform(0.3, 3.0, size=len(space.p_blocks))
        s_oracle = space.scalar_curvature(x)
        s_closed = scalar_curvature(dec, x)
        assert s_closed == pytest.approx(s_oracle, rel=1e-12)
        assert ricci_eigenvalues(dec, x) == pytest.approx(space.ricci(x), rel=1e-12)


def test_unit_su2_is_the_round_three_sphere():
    space = lb.su2()
    assert space.scalar_curvature([1.0]) == pytest.approx(6.0, rel=1e-13)
    assert space.ricci([1.0]) == pytest.approx([2.0], rel=1e-13)
    dec = space.extract_decomposition()
    assert dec.d == (3,)
    assert dec.b == pytest.approx((8.0,))
    assert dec.triples[0, 0, 0] == pytest.approx(24.0)


def test_flat_torus_oracle():
    space = lb.flat_torus(2)
    assert space.scalar_curvature([1.0, 2.0]) == 0.0
    dec = space.extract_decomposition()
    assert dec.b == pytest.approx((0.0, 0.0))


def test_diag_u1_matches_hand_computed_ricci():
    # independent derivation for the (1, 2, 2) splitting:
    # r_0 = x0/x1^2 + x0/x2^2, r_i = 4/x_i - x0/x_i^2
    space = lb.su2su2_diag_u1()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x0, x1, x2 = rng.uniform(0.4, 2.5, size=3)
        expected = [x0 / x1**2 + x0 / x2**2, 4.0 / x1 - x0 / x1**2, 4.0 / x2 - x0 / x2**2]
        assert space.ricci([x0, x1, x2]) == pytest.approx(expected, rel=1e-12)


def test_extracted_decompositions_satisfy_wang_ziller():
    for name in ("su2", "su2su2_product", "su2su2_diag_u1", "hopf_m1", "hopf_m2"):
        dec = lb.named_space(name).extract_decomposition()
        report = validate(dec)
        assert report.ok, name
        assert max(abs(v) for v in report.wang_ziller_residuals) < 1e-10
        assert all(c >= 0.0 for c in dec.c)  # Casimir constants are nonnegative


@pytest.mark.parametrize(
    "m, expected",
    [(1, (3, 4, 6.0, 48.0, 12.0)), (2, (3, 8, 6.0, 128.0, 24.0))],
)
def test_hopf_two_summands_constants(m, expected):
    # Cross-checked geometrically: the normalized family contains the unit
    # round sphere, whose Ricci eigenvalue pins A3 = 12 m and then
    # A2 = 16 m (m + 2); the fibre normalization forces A1 = 6.
    d1, d2, a1, a2, a3 = lb.hopf_two_summands_constants(m)
    assert (d1, d2) == expected[:2]
    assert (a1, a2, a3) == pytest.approx(expected[2:], rel=1e-10)


def test_hopf_raw_constants_make_round_sphere_einstein():
    space = lb.hopf_space(1)
    a1, a2, a3 = lb.two_summands_constants_raw(space)
    # the unit round 7-sphere (Ricci eigenvalue 6) sits at raw scalings (2, 1/2)
    r = space.ricci([2.0, 0.5])
    assert r == pytest.approx([6.0, 6.0], rel=1e-10)
    assert (a1, a2, a3) == pytest.approx((12.0, 24.0, 1.5), rel=1e-10)


def test_shipped_decomposition_files_match_oracle():
    for fname, space in (
        ("su2_unit.json", lb.su2()),
        ("su2su2_product.json", lb.su2su2_product()),
        ("su2su2_diag_u1.json", lb.su2su2_diag_u1()),
        ("hopf_sp1_sp2.json", lb.hopf_space(1)),
    ):
        shipped = load_decomposition(decomposition_path(fname))
        extracted = space.extract_decomposition()
        assert shipped.d == extracted.d
        assert shipped.b == pytest.approx(extracted.b, rel=1e-10)
        assert np.allclose(shipped.triples, extracted.triples, atol=1e-10)
        assert shipped.c == pytest.approx(extracted.c, rel=1e-10)


def test_fibre_sphere_normalization():
    # with the raw product metric the collapsing sphere has curvature 2
    fib = lb.hopf_fibre_space(1)
    assert fib.scalar_curvature([1.0]) == pytest.approx(12.0, rel=1e-10)
