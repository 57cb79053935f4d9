import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.geometry import scalar_curvature
from solitonlab.systems import (
    DancerWangAnsatz,
    LuPagePopeAnsatz,
    ProblemSpec,
    SolitonState,
    TwoSummandsAnsatz,
    conservation_residual,
    conservation_residual_curvature,
    flow_ansatz,
    kahler_residual,
    make_vector_rhs,
    pack_state,
    tr_L,
    u_dotdot_stable,
    unpack_state,
)
from solitonlab.systems import _second_rates_stable

from conftest import u_second_derivative_identity
from oracles.structure import decomposition, generic_rhs

HOPF = TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0)
DW1 = DancerWangAnsatz((2,), (2,), (1,))
DW2 = DancerWangAnsatz((2, 4), (2, 3), (1, -2))
LPP = LuPagePopeAnsatz(2, 2, 1, 3)
LPP_D2_ONE = LuPagePopeAnsatz(2, 2, 1, 1)


def rhs_lpp_literal(state, a, eps):
    """The warped-product flow typed out on its own: (fddot, uddot).

    Test oracle for lpp, which the package integrates as degenerate
    dancer_wang."""
    ff, g1, g2 = state.f
    r = np.array(
        [
            a.d1 * a.q1**2 / 4.0 * ff**2 / g1**4,
            a.p1 / g1**2 - a.q1**2 / 2.0 * ff**2 / g1**4,
            (a.d2 - 1.0) / g2**2,
        ]
    )
    d = np.asarray(a.dims, dtype=float)
    z = state.df / state.f
    H = -state.du + float(np.dot(d, z))
    dz = -H * z + eps / 2.0 + r
    return state.f * (dz + z * z), float(np.dot(d, dz + z * z)) - eps / 2.0


def flow(state, ansatz, eps):
    """(fddot, uddot) at one state from the right-hand side the integrator
    runs, called on a list of floats as the integrator calls it."""
    k = len(ansatz.dims)
    out = make_vector_rhs(ansatz, eps)(state.t, pack_state(state).tolist())
    return np.array(out[k : 2 * k]), out[2 * k + 1]


def log_rates(state, ansatz, eps):
    ddf, _ = flow(state, ansatz, eps)
    z = state.df / state.f
    return ddf / state.f - z * z


def rest_state(f, ansatz):
    k = len(ansatz.dims)
    return SolitonState(0.0, np.asarray(f, float), np.zeros(k), 0.0, 0.0)


class TestClosedForms:
    def test_two_summands_example(self):
        a = TwoSummandsAnsatz(3, 4, 6.0, 8.0, 3.0)
        st_ = rest_state([1.0, 1.0], a)
        dz = log_rates(st_, a, 0.0)
        assert dz == pytest.approx([3.0, 0.5], rel=1e-15)
        assert flow(st_, a, 0.0)[1] == pytest.approx(11.0, rel=1e-15)

    def test_dancer_wang_example(self):
        st_ = rest_state([1.0, 2.0], DW1)
        dz = log_rates(st_, DW1, 0.0)
        assert dz == pytest.approx([2 * 0.25 * (1 / 16), 2 / 4 - 0.5 / 16], rel=1e-15)

    def test_lpp_example(self):
        st_ = rest_state([1.0, 2.0, 1.0], LPP)
        dz = log_rates(st_, LPP, 0.0)
        assert dz[2] == pytest.approx(2.0, rel=1e-15)

    def test_lpp_einstein_term_vanishes_for_d2_one(self):
        a = LuPagePopeAnsatz(2, 2, 1, 1)
        st_ = rest_state([1.0, 2.0, 0.7], a)
        assert log_rates(st_, a, 0.0)[2] == 0.0

    def test_friction_vanishes_at_rest(self):
        # with df = 0 and du = 0 only curvature and eps/2 remain
        st_ = rest_state([1.3, 0.8], HOPF)
        dz0 = log_rates(st_, HOPF, 0.0)
        dz1 = log_rates(st_, HOPF, 2.0)
        assert dz1 - dz0 == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_q_sign_is_irrelevant_to_the_flow(self):
        a_plus = DancerWangAnsatz((2, 4), (2, 3), (1, 2))
        a_minus = DancerWangAnsatz((2, 4), (2, 3), (-1, -2))
        st_ = SolitonState(1.0, [0.7, 1.1, 0.9], [0.2, 0.1, -0.3], -0.2, -0.4)
        ddf1, _ = flow(st_, a_plus, 0.5)
        ddf2, _ = flow(st_, a_minus, 0.5)
        assert ddf1 == pytest.approx(ddf2, rel=1e-15)

    def test_nonpositive_metric_rejected(self):
        # the integrator's own guard is its validity check; the state-level
        # oracle refuses such a state outright
        st_ = SolitonState(1.0, [0.0, 1.0], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            generic_rhs(st_, HOPF, 0.0)


class TestCrossChecks:
    def test_dw_m1_matches_two_summands_dictionary(self):
        # d1 -> 1, A1 -> 0, A2 -> d p, A3 -> d q^2 / 4
        dict_ts = TwoSummandsAnsatz(1, 2, 0.0, 4.0, 0.5)
        rng = np.random.default_rng(10)
        for _ in range(25):
            st_ = SolitonState(
                1.0, rng.uniform(0.4, 2.0, 2), rng.uniform(-1, 1, 2), -0.3, rng.uniform(-1, 0)
            )
            ddf1, udd1 = flow(st_, DW1, 0.7)
            ddf2, udd2 = flow(st_, dict_ts, 0.7)
            assert ddf1 == pytest.approx(ddf2, rel=1e-12)
            assert udd1 == pytest.approx(udd2, rel=1e-12)

    def test_lpp_matches_degenerate_dancer_wang(self):
        rng = np.random.default_rng(11)
        for d2 in (1, 3):
            a = LuPagePopeAnsatz(2, 2, 1, d2)
            adw = a.as_dancer_wang()
            assert adw.q[1] == 0 and adw.p[1] == d2 - 1
            states = [SolitonState(1.0, [0.7, 1.1, 0.9], [0.2, 0.1, 0.3], -0.2, -0.4)] + [
                SolitonState(
                    1.0, rng.uniform(0.4, 2.0, 3), rng.uniform(-1, 1, 3), -0.3, rng.uniform(-1, 0)
                )
                for _ in range(25)
            ]
            for st_ in states:
                ddf, udd = rhs_lpp_literal(st_, a, 0.5)
                for form in (a, adw):
                    got_ddf, got_udd = flow(st_, form, 0.5)
                    assert got_ddf == pytest.approx(ddf, rel=1e-12), (d2, form)
                    assert got_udd == pytest.approx(udd, rel=1e-12), (d2, form)

    def test_degenerate_q_rejected_without_flag(self):
        with pytest.raises(ValueError, match="nonzero"):
            DancerWangAnsatz((2,), (2,), (0,))

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        data=st.tuples(
            st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
            st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
            st.floats(-2.0, 0.0),
            st.floats(-2.0, 0.5),
            st.floats(0.0, 2.0),
        )
    )
    def test_specialized_equals_general_equations(self, data):
        # the forms that run at solve time against the structure-constant route
        f, df, u, du, eps = data
        for ansatz in (HOPF, DW1, DW2, LPP, LPP_D2_ONE):
            k = len(ansatz.dims)
            st_ = SolitonState(1.0, f[:k], df[:k], u, du)
            gen_der = generic_rhs(st_, ansatz, eps)
            out = make_vector_rhs(ansatz, eps)(1.0, pack_state(st_))
            np.testing.assert_array_equal(out[:k], st_.df)
            np.testing.assert_allclose(out[k : 2 * k], gen_der.ddf, rtol=1e-12, atol=1e-12)
            assert out[2 * k : 2 * k + 2] == pytest.approx([du, gen_der.udd], rel=1e-12, abs=1e-12)
            udd = u_dotdot_stable(st_, ansatz, eps)
            assert udd == pytest.approx(gen_der.udd, rel=1e-12, abs=1e-12)

    def test_specialized_equals_general_lpp(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            st_ = SolitonState(
                1.0, rng.uniform(0.3, 2.5, 3), rng.uniform(-1.5, 1.5, 3), -0.4, rng.uniform(-2, 0)
            )
            spec_ddf, _ = flow(st_, LPP, 1.0)
            gen_der = generic_rhs(st_, LPP, 1.0)
            np.testing.assert_allclose(spec_ddf, gen_der.ddf, rtol=1e-12)

    def test_vector_rhs_matches_state_rhs(self):
        rng = np.random.default_rng(13)
        for ansatz in (HOPF, DW1, LPP):
            k = len(ansatz.dims)
            fn = make_vector_rhs(ansatz, 0.9)
            for _ in range(10):
                st_ = SolitonState(
                    1.0, rng.uniform(0.3, 2.5, k), rng.uniform(-1.5, 1.5, k), -0.4, -0.7
                )
                der = generic_rhs(st_, ansatz, 0.9)
                out = fn(1.0, pack_state(st_))
                np.testing.assert_allclose(out[k : 2 * k], der.ddf, rtol=1e-9, atol=1e-12)
                assert out[2 * k + 1] == pytest.approx(der.udd, rel=1e-9, abs=1e-12)
                back = unpack_state(1.0, pack_state(st_), ansatz)
                np.testing.assert_array_equal(back.f, st_.f)


class TestConservedQuantities:
    def test_manufactured_residual(self):
        # udot = 1, tr L = 2, uddot = 0, C = -1, eps = 0, u = 0:
        # residual = 0 + (-1 + 2) * 1 - (-1) = 2
        spec = ProblemSpec(DW1, 0.0, -1.0, (1.0,))
        st_ = SolitonState(1.0, [1.0, 1.0], [2.0, 0.0], 0.0, 1.0)
        assert tr_L(st_, DW1) == 2.0
        assert conservation_residual(st_, 0.0, spec) == pytest.approx(2.0, abs=1e-15)

    def test_variants_agree_along_flow_states(self):
        # with udd taken from the flow the two forms are algebraically equal
        rng = np.random.default_rng(14)
        for ansatz, nsizes in ((HOPF, 1), (DW1, 1), (LPP, 2)):
            spec = ProblemSpec(ansatz, 1.0, -2.0, (1.0,) * nsizes)
            k = len(ansatz.dims)
            for _ in range(30):
                st_ = SolitonState(
                    1.0,
                    rng.uniform(0.3, 2.5, k),
                    rng.uniform(-1.5, 1.5, k),
                    rng.uniform(-2, 0),
                    rng.uniform(-2, 0),
                )
                udd = u_dotdot_stable(st_, ansatz, spec.epsilon)
                r3 = conservation_residual(st_, udd, spec)
                r4 = conservation_residual_curvature(st_, spec)
                assert r3 == pytest.approx(r4, rel=1e-10, abs=1e-10)

    def test_identity_reproduces_flow_uddot(self):
        rng = np.random.default_rng(15)
        spec = ProblemSpec(HOPF, 0.0, -3.0, (1.0,))
        for _ in range(30):
            st_ = SolitonState(
                1.0, rng.uniform(0.3, 2.5, 2), rng.uniform(-1.5, 1.5, 2), -0.3, rng.uniform(-2, 0)
            )
            udd = u_dotdot_stable(st_, HOPF, 0.0)
            ident = u_second_derivative_identity(st_, spec)
            r3 = conservation_residual(st_, udd, spec)
            # identity = 2 udd - R3 exactly, so on-shell (R3 = 0) it doubles udd
            assert ident == pytest.approx(2.0 * udd - r3, rel=1e-9, abs=1e-10)

    def test_identity_reduces_to_curvature_for_static_slice(self):
        spec = ProblemSpec(HOPF, 0.0, 0.0, (1.0,))
        st_ = rest_state([1.7, 2.4], HOPF)
        tr_ricci = scalar_curvature(decomposition(flow_ansatz(HOPF)), st_.f**2)
        # the identity in the package's grouping is the curvature residual
        # plus 2 (C + eps u - H udot), which vanishes on this slice
        assert conservation_residual_curvature(st_, spec) == pytest.approx(tr_ricci, rel=1e-14)

    def test_epsilon_monotonicity_of_rates(self):
        st_ = SolitonState(1.0, [0.9, 1.4], [0.3, 0.2], -0.1, -0.5)
        deps = 0.75
        base = log_rates(st_, HOPF, 0.5)
        bumped = log_rates(st_, HOPF, 0.5 + deps)
        assert bumped - base == pytest.approx([deps / 2, deps / 2], rel=1e-13)

    def test_cauchy_schwarz_for_positive_shape(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            st_ = SolitonState(
                1.0, rng.uniform(0.3, 2.5, 3), rng.uniform(0.0, 2.0, 3), 0.0, 0.0
            )
            tr_L2 = float(np.dot(LPP.dims, (st_.df / st_.f) ** 2))
            assert tr_L2 <= tr_L(st_, LPP) ** 2 + 1e-12


class TestKahlerResidual:
    def test_singular_orbit_is_on_locus(self):
        st_ = SolitonState(0.0, [0.0, 2.0], [1.0, 0.0], 0.0, 0.0)
        assert kahler_residual(st_, DW1) == pytest.approx([0.0])

    def test_balanced_example(self):
        a = DancerWangAnsatz((2,), (2,), (-2,))
        st_ = SolitonState(1.0, [2.0, 2.0], [0.0, 1.0], 0.0, 0.0)
        # 2 g gdot + q f = 2*2*1 + (-2)*2 = 0
        assert kahler_residual(st_, a) == pytest.approx([0.0])

    def test_positive_q_forces_positive_residual(self):
        st_ = SolitonState(1.0, [0.5, 1.5], [1.0, 0.2], 0.0, 0.0)
        assert np.all(kahler_residual(st_, DW1) > 0.0)


class TestValidation:
    def test_problem_spec_guards(self):
        with pytest.raises(ValueError, match="epsilon"):
            ProblemSpec(HOPF, -0.5, -1.0, (1.0,))
        with pytest.raises(ValueError, match="C"):
            ProblemSpec(HOPF, 0.0, 0.5, (1.0,))
        with pytest.raises(ValueError, match="initial"):
            ProblemSpec(HOPF, 0.0, -1.0, (1.0, 2.0))
        spec = ProblemSpec(HOPF, 0.0, -1.0, (1.0,))
        assert spec.ansatz.dims[0] == 3 and spec.orbit_dim == 7
        assert ProblemSpec(DW1, 0.0, -1.0, (1.0,)).ansatz.dims[0] == 1


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    states=st.lists(
        st.tuples(
            st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
            st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
            st.floats(-2.0, 2.0),
        ),
        min_size=1,
        max_size=6,
    ),
    eps=st.floats(0.0, 2.0),
)
def test_float_rhs_and_sample_batches_share_one_closed_form(states, eps):
    # the integrator's right-hand side on floats and the (k, N) batch path
    # of the column table are one closed form: equal bit for bit
    for ansatz in (HOPF, DW1, DW2, LPP, LPP_D2_ONE):
        k = len(ansatz.dims)
        f = np.array([s[0][:k] for s in states]).T
        df = np.array([s[1][:k] for s in states]).T
        du = np.array([s[2] for s in states])
        rates = _second_rates_stable(f, df, du, ansatz, ansatz.dims, eps)
        udd = u_dotdot_stable(SolitonState(0.0, f, df, 0.0 * du, du), ansatz, eps)
        fn = make_vector_rhs(ansatz, eps)
        for j in range(len(states)):
            y = f[:, j].tolist() + df[:, j].tolist() + [0.0, float(du[j])]
            out = fn(0.0, y)
            assert all(type(v) is float for v in out)
            w = _second_rates_stable(y[:k], y[k : 2 * k], y[2 * k + 1], ansatz, ansatz.dims, eps)
            assert float_bits(w) == float_bits([r[j] for r in rates])
            assert float_bits(out[k : 2 * k]) == float_bits(f[:, j] * [r[j] for r in rates])
            assert float_bits(out[2 * k + 1]) == float_bits(udd[j])
