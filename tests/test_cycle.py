import io
import math
import warnings

import numpy as np
import pytest

from casotto import friction as friction_module
from casotto.cycle import (
    BathPair,
    ConditionWarning,
    adiabatic_engine,
    adiabatic_refrigerator,
    nonadiabatic_engine,
    nonadiabatic_refrigerator,
    power,
    sweep,
    write_sweep_csv,
)
from casotto.spectrum import CavityConfig, ThermalBath
from casotto.trajectory import quintic

pytestmark = pytest.mark.filterwarnings(
    "ignore::casotto.friction.TruncationWarning"
)


def cfg(eps=0.01, K=64, tail_tol=1e-6):
    return CavityConfig(L0=math.pi, epsilon=eps, n_modes=K, tail_tol=tail_tol)


ENGINE_BATHS = BathPair(beta_A=2.0, beta_C=1.0)


class TestBathPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathPair(beta_A=1.0, beta_C=2.0)  # A hotter than C
        with pytest.raises(ValueError):
            BathPair(beta_A=1.0, beta_C=0.0)

    def test_ratio_and_carnot(self):
        p = BathPair(2.0, 0.5)
        assert p.ratio == 0.25
        assert p.carnot_efficiency == 0.75


class TestAdiabaticEngine:
    @pytest.mark.parametrize("eps", [0.01, 0.06])
    def test_efficiency_equals_compression_ratio(self, eps):
        report = adiabatic_engine(cfg(eps=eps), ENGINE_BATHS)
        assert abs(report.eta - eps) < 1e-12
        assert report.mode == "engine"

    def test_carnot_matching(self):
        # compression tuned to the bath ratio saturates the Carnot value
        for beta_A, ratio in ((2.0, 0.3), (1.0, 0.83), (3.0, 0.6)):
            baths = BathPair(beta_A, ratio * beta_A)
            report = adiabatic_engine(cfg(eps=1.0 - ratio, K=32), baths)
            assert abs(report.eta - baths.carnot_efficiency) < 1e-12

    def test_equal_occupations_give_zero_heat_and_work(self):
        # beta_C * w(L1) == beta_A * w holds exactly for eps = 0.5, ratio 0.5
        # (binary-exact arithmetic), so the occupation differences vanish
        # term by term
        report = adiabatic_engine(cfg(eps=0.5), BathPair(2.0, 1.0))
        assert report.Q == 0.0
        assert report.W == 0.0
        assert not report.eta_defined

    def test_equal_baths_only_consume_work(self):
        # equal temperatures put the machine outside the engine window: the
        # compressed-cavity occupations are lower, so heat and work are both
        # negative
        with pytest.warns(ConditionWarning):
            report = adiabatic_engine(cfg(eps=0.5), BathPair(1.0, 1.0))
        assert report.Q < 0.0
        assert report.W < 0.0
        assert report.mode == "dissipator"

    def test_condition_warning_outside_engine_window(self):
        with pytest.warns(ConditionWarning):
            adiabatic_engine(cfg(eps=0.4), BathPair(1.0, 0.9))

    def test_engine_convention_relations(self):
        report = adiabatic_engine(cfg(eps=0.05, K=48), ENGINE_BATHS)
        assert report.Q == pytest.approx(report.E_C - report.E_B, rel=1e-12)
        assert report.W == pytest.approx(
            (report.E_A - report.E_B) + (report.E_C - report.E_D), rel=1e-12
        )

    def test_casimir_toggle_leaves_heat_and_work_bitwise(self):
        a = adiabatic_engine(cfg(), ENGINE_BATHS, include_casimir=True)
        b = adiabatic_engine(cfg(), ENGINE_BATHS, include_casimir=False)
        assert a.Q == b.Q and a.W == b.W
        assert a.E_A != b.E_A  # the offsets do land in the stroke energies


class TestAdiabaticRefrigerator:
    def test_cop_identity(self):
        report = adiabatic_refrigerator(cfg(eps=0.06), BathPair(2.0, 1.9))
        assert abs(report.eta - (1.0 / 0.06 - 1.0)) < 1e-12
        assert report.eta == pytest.approx(15.6666666666667, rel=1e-10)
        assert report.mode == "refrigerator"

    def test_boundary_saturation_gives_zero_heat(self):
        report = adiabatic_refrigerator(cfg(eps=0.5), BathPair(2.0, 1.0))
        assert report.Q == 0.0

    def test_condition_warning(self):
        with pytest.warns(ConditionWarning):
            adiabatic_refrigerator(cfg(eps=0.06), BathPair(2.0, 1.0))


class TestNonadiabaticEngine:
    def test_large_tau_recovers_adiabatic(self):
        ad = adiabatic_engine(cfg(K=32), ENGINE_BATHS)
        na = nonadiabatic_engine(cfg(K=32), ENGINE_BATHS, quintic(60.0))
        assert na.eta == pytest.approx(ad.eta, abs=1e-8)
        assert na.Q == pytest.approx(ad.Q, rel=1e-9)
        assert na.W == pytest.approx(ad.W, rel=1e-7)

    def test_efficiency_below_adiabatic(self):
        report = nonadiabatic_engine(cfg(K=32), ENGINE_BATHS, quintic(1.0))
        assert report.eta < report.eta_adiabatic
        assert report.mode == "engine"
        assert report.E_F_A > 0 and report.E_F_C > 0

    def test_sudden_stroke_kills_the_engine(self):
        report = nonadiabatic_engine(cfg(K=48), ENGINE_BATHS, quintic(0.05))
        assert report.W < 0
        assert report.mode == "dissipator"

    def test_second_order_efficiency_converges_cubically(self):
        # halving eps shrinks |eta_exact - eta_second_order| about 8x (the
        # residual is cubic in eps once the friction is a small fraction of
        # the heat, hence the moderate stroke time)
        diffs = []
        for eps in (0.04, 0.02, 0.01):
            r = nonadiabatic_engine(cfg(eps=eps, K=24), ENGINE_BATHS, quintic(3.0))
            diffs.append(abs(r.eta - r.eta_second_order))
        assert diffs[0] / diffs[1] == pytest.approx(8.0, rel=0.25)
        assert diffs[1] / diffs[2] == pytest.approx(8.0, rel=0.25)

    def test_hot_friction_uses_reversed_stroke(self):
        r = nonadiabatic_engine(cfg(K=24), ENGINE_BATHS, quintic(1.0))
        assert r.q_convention.startswith("Q = Q_adiabatic - E_F(cold")

    @pytest.mark.parametrize("machine", ["engine", "refrigerator"])
    def test_engine_convention_relations_with_friction(self, machine):
        # the engine takes heat at the hot contact (B -> C) and delivers the
        # work of both strokes; the refrigerator draws heat at the cold
        # contact (D -> A) and pays for both strokes
        if machine == "engine":
            r = nonadiabatic_engine(cfg(K=24), ENGINE_BATHS, quintic(1.0))
            assert r.Q == pytest.approx(r.E_C - r.E_B, rel=1e-12)
            assert r.W == pytest.approx(
                (r.E_A - r.E_B) + (r.E_C - r.E_D), rel=1e-12
            )
        else:
            r = nonadiabatic_refrigerator(
                cfg(eps=0.06, K=24), BathPair(2.0, 1.9), quintic(1.0)
            )
            assert r.Q == pytest.approx(r.E_A - r.E_D, rel=1e-12)
            assert r.W == pytest.approx(
                (r.E_B - r.E_A) + (r.E_D - r.E_C), rel=1e-12
            )
        assert r.E_F_A > 0 and r.E_F_C > 0

    def test_efficiency_ordering_in_tau(self):
        taus = [0.5, 1.0, 2.0, 4.0, 8.0]
        etas = [
            nonadiabatic_engine(cfg(K=24), ENGINE_BATHS, quintic(t)).eta
            for t in taus
        ]
        assert all(a <= b + 1e-14 for a, b in zip(etas, etas[1:]))
        assert etas[-1] <= 0.01 + 1e-12


class TestNonadiabaticRefrigerator:
    BATHS = BathPair(2.0, 1.9)

    def test_cop_below_adiabatic(self):
        r = nonadiabatic_refrigerator(cfg(eps=0.06, K=32), self.BATHS, quintic(2.0))
        assert r.eta <= r.eta_adiabatic
        assert r.mode == "refrigerator"

    def test_sudden_stroke_stops_cooling(self):
        r = nonadiabatic_refrigerator(cfg(eps=0.06, K=48), self.BATHS, quintic(0.05))
        assert r.Q < 0
        assert r.mode == "dissipator"

    def test_slow_limit_recovers_adiabatic(self):
        ad = adiabatic_refrigerator(cfg(eps=0.06, K=32), self.BATHS)
        na = nonadiabatic_refrigerator(cfg(eps=0.06, K=32), self.BATHS, quintic(80.0))
        assert na.eta == pytest.approx(ad.eta, rel=1e-6)

    def test_cop_improves_with_similar_baths(self):
        cops = []
        for ratio in (0.95, 0.97, 0.99):
            baths = BathPair(2.0, 2.0 * ratio)
            r = nonadiabatic_refrigerator(cfg(eps=0.06, K=32), baths, quintic(3.0))
            cops.append(r.eta)
        assert cops[0] < cops[1] < cops[2]


ENTRY_POINTS = [
    pytest.param(lambda c, b: adiabatic_engine(c, b), id="adiabatic_engine"),
    pytest.param(lambda c, b: nonadiabatic_engine(c, b, quintic(1.0)),
                 id="nonadiabatic_engine"),
    pytest.param(lambda c, b: adiabatic_refrigerator(c, b),
                 id="adiabatic_refrigerator"),
    pytest.param(lambda c, b: nonadiabatic_refrigerator(c, b, quintic(1.0)),
                 id="nonadiabatic_refrigerator"),
]


class TestConditionWarning:
    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_one_warning_attributed_to_the_caller(self, call):
        # BathPair(1.0, 1.0) lies outside the engine window at eps = 0.06 and
        # BathPair(2.0, 1.0) outside the refrigerator's; each entry point warns
        # only about its own machine
        baths = (BathPair(1.0, 1.0), BathPair(2.0, 1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in baths:
                call(cfg(eps=0.06, K=16), b)
        conditions = [w for w in caught if issubclass(w.category, ConditionWarning)]
        assert len(conditions) == 1
        assert conditions[0].filename == __file__


class TestReportError:
    def test_adiabatic_reports_carry_zero_error(self):
        assert adiabatic_engine(cfg(K=16), ENGINE_BATHS).err == 0.0
        assert adiabatic_refrigerator(cfg(eps=0.06, K=16), BathPair(2.0, 1.9)).err == 0.0

    def test_finite_time_error_sums_both_strokes(self):
        traj = quintic(1.0)
        r = nonadiabatic_engine(cfg(K=16), ENGINE_BATHS, traj)
        strokes = [
            friction_module.friction_energy(cfg(K=16), ThermalBath(beta), traj)
            for beta in (ENGINE_BATHS.beta_A, ENGINE_BATHS.beta_C)
        ]
        assert r.err == strokes[0].err + strokes[1].err
        assert 0.0 < r.err < 1e-10 * (r.E_F_A + r.E_F_C)


class TestPower:
    def test_adiabatic_scaling(self):
        r = adiabatic_engine(cfg(K=32), ENGINE_BATHS)
        assert power(r, 2.0) == pytest.approx(r.W / 4.0)
        assert power(r, 4.0) == pytest.approx(power(r, 2.0) / 2.0)

    def test_thermalization_time_charged(self):
        r = adiabatic_engine(cfg(K=32), ENGINE_BATHS)
        assert power(r, 1.0, thermalization_time=2.0) == pytest.approx(r.W / 4.0)

    def test_zero_work_zero_power(self):
        r = adiabatic_engine(cfg(eps=0.5), BathPair(2.0, 1.0))
        assert r.W == 0.0
        assert power(r, 1.0) == 0.0

    def test_validation(self):
        r = adiabatic_engine(cfg(K=16), ENGINE_BATHS)
        with pytest.raises(ValueError):
            power(r, 0.0)
        with pytest.raises(ValueError):
            power(r, 1.0, thermalization_time=-1.0)

    @pytest.mark.parametrize("runner", [nonadiabatic_engine, nonadiabatic_refrigerator])
    @pytest.mark.parametrize("thermalization_time", [-2.0, -5.0])
    def test_finite_time_cycles_reject_negative_thermalization(
        self, runner, thermalization_time
    ):
        # -2 would divide by zero at tau = 1, -5 would flip the power's sign
        with pytest.raises(ValueError, match="thermalization_time"):
            runner(cfg(eps=0.06, K=16), BathPair(2.0, 1.9), quintic(1.0),
                   thermalization_time=thermalization_time)

    def test_finite_time_power_charges_thermalization(self):
        r = nonadiabatic_engine(cfg(K=16), ENGINE_BATHS, quintic(1.0),
                                thermalization_time=2.0)
        assert r.power == power(r, 1.0, thermalization_time=2.0)


class TestSweep:
    def test_single_cell_matches_direct_call(self):
        rows = sweep(cfg(K=16), [ENGINE_BATHS], [1.0], quintic)
        direct = nonadiabatic_engine(cfg(K=16), ENGINE_BATHS, quintic(1.0))
        assert len(rows) == 1
        assert rows[0].report.eta == direct.eta
        assert rows[0].report.W == direct.W

    def test_epsilon_reuse_is_consistent(self):
        rows = sweep(
            cfg(K=16), [ENGINE_BATHS], [1.0], quintic, epsilons=[0.01, 0.02]
        )
        by_eps = {r.epsilon: r.report for r in rows}
        assert by_eps[0.02].E_F_A == pytest.approx(4.0 * by_eps[0.01].E_F_A, rel=1e-12)

    def test_row_order_and_grid_shape(self):
        baths = [BathPair(2.0, 0.4), BathPair(2.0, 1.0)]
        rows = sweep(cfg(K=8), baths, [2.0, 0.5, 1.0], quintic)
        assert [r.beta_ratio for r in rows] == [0.2, 0.2, 0.2, 0.5, 0.5, 0.5]
        assert [r.tau_omega1 for r in rows] == [0.5, 1.0, 2.0, 0.5, 1.0, 2.0]

    def test_cell_failure_is_recorded_not_raised(self):
        def broken(tau):
            raise RuntimeError("boom")

        rows = sweep(cfg(K=8), [ENGINE_BATHS], [1.0], broken)
        assert len(rows) == 1
        assert rows[0].report is None
        assert "boom" in rows[0].error

    def test_rows_keep_bath_epsilon_tau_order(self):
        baths = [BathPair(2.0, 0.4), BathPair(2.0, 1.0)]

        def family(tau):
            if tau == 1.0:
                raise RuntimeError("no profile")
            return quintic(tau)

        rows = sweep(cfg(K=8), baths, [2.0, 0.5, 1.0], family, epsilons=[0.02, 0.01])
        assert [(r.beta_ratio, r.epsilon, r.tau_omega1) for r in rows] == [
            (ratio, eps, tau)
            for ratio in (0.2, 0.5) for eps in (0.02, 0.01) for tau in (0.5, 1.0, 2.0)
        ]
        assert [r.report is None for r in rows] == [False, True, False] * 4
        assert all("no profile" in r.error for r in rows if r.report is None)
        for r in rows:
            if r.report is not None:
                direct = nonadiabatic_engine(
                    cfg(K=8, eps=r.epsilon), BathPair(2.0, 2.0 * r.beta_ratio),
                    quintic(r.tau_omega1),
                )
                assert r.report.W == direct.W

    def test_mode_weights_built_once_per_table(self, monkeypatch):
        built = []
        original = friction_module._mode_weights

        def counting(table, K):
            built.append(table.label)
            return original(table, K)

        monkeypatch.setattr(friction_module, "_mode_weights", counting)
        baths = [BathPair(2.0, 0.4), BathPair(2.0, 1.0), BathPair(3.0, 2.0)]
        sweep(cfg(K=16), baths, [0.5, 1.0, 2.0], quintic, epsilons=[0.01, 0.02])
        assert sorted(built) == sorted(quintic(t).label for t in (0.5, 1.0, 2.0))

    def test_csv_shape(self):
        rows = sweep(cfg(K=8), [ENGINE_BATHS], [0.5, 1.0], quintic)
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("tau_omega1,beta_ratio,epsilon,Q,W,eta")
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(cfg(K=8), [], [1.0], quintic)
        with pytest.raises(ValueError):
            sweep(cfg(K=8), [ENGINE_BATHS], [1.0], quintic, machine="laser")


class TestCasimirCancellation:
    def test_nonadiabatic_toggle_bitwise(self):
        on = nonadiabatic_engine(cfg(K=16), ENGINE_BATHS, quintic(1.0),
                                 include_casimir=True)
        off = nonadiabatic_engine(cfg(K=16), ENGINE_BATHS, quintic(1.0),
                                  include_casimir=False)
        assert on.Q == off.Q
        assert on.W == off.W
        assert on.eta == off.eta
        assert on.E_A != off.E_A
