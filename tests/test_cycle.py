import io
import math
import warnings

import numpy as np
import pytest

from casotto import cli
from casotto import cycle as cycle_module
from casotto import friction as friction_module
from casotto.cycle import (
    BathPair,
    ConditionWarning,
    CycleReport,
    otto_cycle,
    sweep,
)
from casotto.friction import TruncationWarning, friction_energy, spectral_table
from casotto.spectrum import CavityConfig, ThermalBath, casimir_energy
from casotto.trajectory import PPoly, Trajectory, quintic

pytestmark = pytest.mark.filterwarnings(
    "ignore::casotto.friction.TruncationWarning"
)


def cfg(eps=0.01, K=64, tail_tol=1e-6):
    return CavityConfig(L0=math.pi, epsilon=eps, n_modes=K, tail_tol=tail_tol)


ENGINE_BATHS = BathPair(beta_A=2.0, beta_C=1.0)


def _scalar_ratio(num, den, limit):
    if den != 0.0 and math.isfinite(num / den):
        return num / den, True
    return limit, False


def reference_cycle(cfg, baths, machine, traj=None, *, include_casimir=True,
                    thermalization_time=0.0):
    """One cell's cycle, the scalar bookkeeping the package ran cell by cell
    before it took a sweep's cells as arrays; warnings are not raised."""
    engine = machine == "engine"
    period = math.nan
    if traj is not None:
        if not traj.duration > 0 or thermalization_time < 0:
            raise ValueError("tau must be positive, thermalization_time non-negative")
        period = 2.0 * traj.duration + thermalization_time
    Q_ad, W_ad, tail, w0_nA, w1_nA, w1_nC, w0_nC = cycle_module._otto_sums(cfg, baths, machine)
    # an infinite estimate (no decay) flags, as a friction tail's does
    tail_warning = bool(math.isinf(tail) or tail > cfg.tail_tol * max(abs(Q_ad), 1e-300))
    ef_a = ef_c = err = 0.0
    if traj is not None:
        table = spectral_table(traj, cfg)
        res_A, res_C = (
            friction_energy(cfg, ThermalBath(beta), traj, table=table)
            for beta in (baths.beta_A, baths.beta_C)
        )
        ef_a, ef_c, err = res_A.value, res_C.value, res_A.err + res_C.err
        tail_warning = tail_warning or res_A.tail_warning or res_C.tail_warning
    if engine:
        Q, W = Q_ad - ef_a, W_ad - (ef_a + ef_c)
        eta_ad, _ = _scalar_ratio(W_ad, Q_ad, cfg.epsilon)
        eta, defined = _scalar_ratio(W, Q, eta_ad)
        runs = Q > 0 and W > 0
    else:
        Q, W = Q_ad - ef_c, W_ad + ef_a + ef_c
        eta_ad, _ = _scalar_ratio(Q_ad, W_ad, 1.0 / cfg.epsilon - 1.0)
        eta, defined = _scalar_ratio(Q, W, eta_ad)
        runs = Q > 0
    eta2 = math.nan
    if engine and Q_ad != 0.0:
        eta2 = eta_ad - (ef_a + ef_c) / Q_ad
    e0 = casimir_energy(cfg.L0) if include_casimir else 0.0
    e1 = casimir_energy(cfg.L1) if include_casimir else 0.0
    return CycleReport(
        E_A=w0_nA + e0,
        E_B=w1_nA + ef_a + e1,
        E_C=w1_nC + e1,
        E_D=w0_nC + ef_c + e0,
        Q=Q,
        W=W,
        eta=eta,
        eta_adiabatic=eta_ad,
        power=W / period,
        mode=machine if runs else "dissipator",
        E_F_A=ef_a,
        E_F_C=ef_c,
        k_used=cfg.n_modes,
        eta_defined=defined,
        eta_second_order=eta2,
        # the population-frozen tail is a numpy float; reports hold floats
        tail_estimate=float(tail),
        tail_warning=tail_warning,
        q_convention=(
            "Q = Q_adiabatic - E_F(cold compression stroke)" if engine
            else "Q = Q_adiabatic - E_F(hot expansion stroke)"
        ),
        err=err,
    )


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
        report = otto_cycle(cfg(eps=eps), ENGINE_BATHS)
        assert abs(report.eta - eps) < 1e-12
        assert report.mode == "engine"

    def test_carnot_matching(self):
        # compression tuned to the bath ratio saturates the Carnot value
        for beta_A, ratio in ((2.0, 0.3), (1.0, 0.83), (3.0, 0.6)):
            baths = BathPair(beta_A, ratio * beta_A)
            report = otto_cycle(cfg(eps=1.0 - ratio, K=32), baths)
            assert abs(report.eta - baths.carnot_efficiency) < 1e-12

    def test_equal_occupations_give_zero_heat_and_work(self):
        # beta_C * w(L1) == beta_A * w holds exactly for eps = 0.5, ratio 0.5
        # (binary-exact arithmetic), so the occupation differences vanish
        # term by term
        report = otto_cycle(cfg(eps=0.5), BathPair(2.0, 1.0))
        assert report.Q == 0.0
        assert report.W == 0.0
        assert not report.eta_defined

    def test_equal_baths_only_consume_work(self):
        # equal temperatures put the machine outside the engine window: the
        # compressed-cavity occupations are lower, so heat and work are both
        # negative
        with pytest.warns(ConditionWarning):
            report = otto_cycle(cfg(eps=0.5), BathPair(1.0, 1.0))
        assert report.Q < 0.0
        assert report.W < 0.0
        assert report.mode == "dissipator"

    def test_condition_warning_outside_engine_window(self):
        with pytest.warns(ConditionWarning):
            otto_cycle(cfg(eps=0.4), BathPair(1.0, 0.9))

    def test_engine_convention_relations(self):
        report = otto_cycle(cfg(eps=0.05, K=48), ENGINE_BATHS)
        assert report.Q == pytest.approx(report.E_C - report.E_B, rel=1e-12)
        assert report.W == pytest.approx(
            (report.E_A - report.E_B) + (report.E_C - report.E_D), rel=1e-12
        )

    def test_casimir_toggle_leaves_heat_and_work_bitwise(self):
        a = otto_cycle(cfg(), ENGINE_BATHS, include_casimir=True)
        b = otto_cycle(cfg(), ENGINE_BATHS, include_casimir=False)
        assert a.Q == b.Q and a.W == b.W
        assert a.E_A != b.E_A  # the offsets do land in the stroke energies


class TestAdiabaticRefrigerator:
    def test_cop_identity(self):
        report = otto_cycle(cfg(eps=0.06), BathPair(2.0, 1.9), machine="refrigerator")
        assert abs(report.eta - (1.0 / 0.06 - 1.0)) < 1e-12
        assert report.eta == pytest.approx(15.6666666666667, rel=1e-10)
        assert report.mode == "refrigerator"

    def test_boundary_saturation_gives_zero_heat(self):
        report = otto_cycle(cfg(eps=0.5), BathPair(2.0, 1.0), machine="refrigerator")
        assert report.Q == 0.0

    def test_condition_warning(self):
        with pytest.warns(ConditionWarning):
            otto_cycle(cfg(eps=0.06), BathPair(2.0, 1.0), machine="refrigerator")


class TestNonadiabaticEngine:
    def test_large_tau_recovers_adiabatic(self):
        ad = otto_cycle(cfg(K=32), ENGINE_BATHS)
        na = otto_cycle(cfg(K=32), ENGINE_BATHS, quintic(60.0))
        assert na.eta == pytest.approx(ad.eta, abs=1e-8)
        assert na.Q == pytest.approx(ad.Q, rel=1e-9)
        assert na.W == pytest.approx(ad.W, rel=1e-7)

    def test_efficiency_below_adiabatic(self):
        report = otto_cycle(cfg(K=32), ENGINE_BATHS, quintic(1.0))
        assert report.eta < report.eta_adiabatic
        assert report.mode == "engine"
        assert report.E_F_A > 0 and report.E_F_C > 0

    def test_sudden_stroke_kills_the_engine(self):
        report = otto_cycle(cfg(K=48), ENGINE_BATHS, quintic(0.05))
        assert report.W < 0
        assert report.mode == "dissipator"

    def test_second_order_efficiency_converges_cubically(self):
        # halving eps shrinks |eta_exact - eta_second_order| about 8x (the
        # residual is cubic in eps once the friction is a small fraction of
        # the heat, hence the moderate stroke time)
        diffs = []
        for eps in (0.04, 0.02, 0.01):
            r = otto_cycle(cfg(eps=eps, K=24), ENGINE_BATHS, quintic(3.0))
            diffs.append(abs(r.eta - r.eta_second_order))
        assert diffs[0] / diffs[1] == pytest.approx(8.0, rel=0.25)
        assert diffs[1] / diffs[2] == pytest.approx(8.0, rel=0.25)

    def test_hot_friction_uses_reversed_stroke(self):
        r = otto_cycle(cfg(K=24), ENGINE_BATHS, quintic(1.0))
        assert r.q_convention.startswith("Q = Q_adiabatic - E_F(cold")

    @pytest.mark.parametrize("machine", ["engine", "refrigerator"])
    def test_engine_convention_relations_with_friction(self, machine):
        # the engine takes heat at the hot contact (B -> C) and delivers the
        # work of both strokes; the refrigerator draws heat at the cold
        # contact (D -> A) and pays for both strokes
        if machine == "engine":
            r = otto_cycle(cfg(K=24), ENGINE_BATHS, quintic(1.0))
            assert r.Q == pytest.approx(r.E_C - r.E_B, rel=1e-12)
            assert r.W == pytest.approx(
                (r.E_A - r.E_B) + (r.E_C - r.E_D), rel=1e-12
            )
        else:
            r = otto_cycle(
                cfg(eps=0.06, K=24), BathPair(2.0, 1.9), quintic(1.0), machine="refrigerator"
            )
            assert r.Q == pytest.approx(r.E_A - r.E_D, rel=1e-12)
            assert r.W == pytest.approx(
                (r.E_B - r.E_A) + (r.E_D - r.E_C), rel=1e-12
            )
        assert r.E_F_A > 0 and r.E_F_C > 0

    def test_efficiency_ordering_in_tau(self):
        taus = [0.5, 1.0, 2.0, 4.0, 8.0]
        etas = [
            otto_cycle(cfg(K=24), ENGINE_BATHS, quintic(t)).eta
            for t in taus
        ]
        assert all(a <= b + 1e-14 for a, b in zip(etas, etas[1:]))
        assert etas[-1] <= 0.01 + 1e-12


class TestNonadiabaticRefrigerator:
    BATHS = BathPair(2.0, 1.9)

    def test_cop_below_adiabatic(self):
        r = otto_cycle(cfg(eps=0.06, K=32), self.BATHS, quintic(2.0), machine="refrigerator")
        assert r.eta <= r.eta_adiabatic
        assert r.mode == "refrigerator"

    def test_sudden_stroke_stops_cooling(self):
        r = otto_cycle(cfg(eps=0.06, K=48), self.BATHS, quintic(0.05), machine="refrigerator")
        assert r.Q < 0
        assert r.mode == "dissipator"

    def test_slow_limit_recovers_adiabatic(self):
        ad = otto_cycle(cfg(eps=0.06, K=32), self.BATHS, machine="refrigerator")
        na = otto_cycle(cfg(eps=0.06, K=32), self.BATHS, quintic(80.0), machine="refrigerator")
        assert na.eta == pytest.approx(ad.eta, rel=1e-6)

    def test_cop_improves_with_similar_baths(self):
        cops = []
        for ratio in (0.95, 0.97, 0.99):
            baths = BathPair(2.0, 2.0 * ratio)
            r = otto_cycle(cfg(eps=0.06, K=32), baths, quintic(3.0), machine="refrigerator")
            cops.append(r.eta)
        assert cops[0] < cops[1] < cops[2]


# (machine, traj): each machine population-frozen, then at a finite tau
ENTRY_POINTS = [
    pytest.param("engine", None, id="adiabatic_engine"),
    pytest.param("engine", quintic(1.0), id="nonadiabatic_engine"),
    pytest.param("refrigerator", None, id="adiabatic_refrigerator"),
    pytest.param("refrigerator", quintic(1.0), id="nonadiabatic_refrigerator"),
]


class TestConditionWarning:
    @pytest.mark.parametrize("machine, traj", ENTRY_POINTS)
    def test_one_warning_attributed_to_the_caller(self, machine, traj):
        # BathPair(1.0, 1.0) lies outside the engine window at eps = 0.06 and
        # BathPair(2.0, 1.0) outside the refrigerator's; each entry point warns
        # only about its own machine
        baths = (BathPair(1.0, 1.0), BathPair(2.0, 1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in baths:
                otto_cycle(cfg(eps=0.06, K=16), b, traj, machine=machine)
        conditions = [w for w in caught if issubclass(w.category, ConditionWarning)]
        assert len(conditions) == 1
        assert conditions[0].filename == __file__

    @pytest.mark.parametrize("machine, r, text", [
        ("engine", 0.5, None),
        ("engine", np.nextafter(0.5, 1), "bath ratio beta_C/beta_A = 0.5 exceeds 1 - eps = 0.5: "
                                         "no positive heat intake, not an engine regime"),
        ("refrigerator", 0.5, None),
        ("refrigerator", 1.0, None),
        ("refrigerator", np.nextafter(0.5, 0),
         "refrigerator needs 1 - eps <= beta_C/beta_A <= 1, got 0.5 with eps = 0.5"),
    ], ids=["engine-edge", "engine-past", "refrigerator-low-edge", "refrigerator-high-edge",
            "refrigerator-past"])
    def test_window_edges_and_texts(self, machine, r, text):
        # at eps = 0.5 the engine's window ends at r = 0.5, where the
        # refrigerator's begins; one ulp past an edge warns with the full text
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            otto_cycle(cfg(eps=0.5, K=16), BathPair(2.0, 2.0 * r), machine=machine)
        conditions = [str(w.message) for w in caught if issubclass(w.category, ConditionWarning)]
        assert conditions == ([] if text is None else [text])


class TestTruncationWarning:
    @pytest.mark.parametrize("machine, traj", ENTRY_POINTS[1::2])
    def test_friction_warnings_attributed_to_the_caller(self, machine, traj):
        # at K = 16 the friction sums' tails exceed tail_tol; the
        # population-frozen sums at beta 2 do not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = otto_cycle(cfg(K=16), ENGINE_BATHS, traj, machine=machine)
        assert report.tail_warning
        truncations = [w for w in caught if issubclass(w.category, TruncationWarning)]
        assert truncations
        assert all(w.filename == __file__ for w in truncations)

    @pytest.mark.parametrize("machine, traj", ENTRY_POINTS[0::2])
    def test_population_frozen_tail_attributed_to_the_caller(self, machine, traj):
        # hot baths at K = 4 leave a large population-frozen tail; the
        # refrigerator also warns that the pair is outside its window
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = otto_cycle(cfg(K=4), BathPair(0.2, 0.1), traj, machine=machine)
        assert report.tail_warning
        assert any(issubclass(w.category, TruncationWarning) for w in caught)
        assert all(w.filename == __file__ for w in caught)


class TestInfinitePopulationFrozenTail:
    """A population-frozen tail that does not decay (estimate inf) flags and
    warns, as an infinite friction tail does."""

    @pytest.mark.parametrize("machine, cell", [
        ("engine", (cfg(K=4), BathPair(1e-4, 1e-4 * 0.99))),
        ("refrigerator", (cfg(K=16), BathPair(1e-3, 1e-3 * 0.99))),
    ], ids=["engine-K4", "refrigerator-K16"])
    def test_flags_and_warns(self, machine, cell):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = otto_cycle(*cell, machine=machine)
        assert report.tail_estimate == math.inf
        assert report.tail_warning
        truncations = [w for w in caught if issubclass(w.category, TruncationWarning)]
        assert len(truncations) == 1
        assert "tail estimate inf" in str(truncations[0].message)
        assert truncations[0].filename == __file__

    def test_sweep_rows_flag_it(self):
        rows = sweep(cfg(K=4), [BathPair(1e-4, 1e-4 * 0.99)], [1.0], quintic)
        assert rows[0].report.tail_estimate == math.inf
        assert rows[0].report.tail_warning


class TestReportError:
    def test_adiabatic_reports_carry_zero_error(self):
        assert otto_cycle(cfg(K=16), ENGINE_BATHS).err == 0.0
        fridge = otto_cycle(cfg(eps=0.06, K=16), BathPair(2.0, 1.9), machine="refrigerator")
        assert fridge.err == 0.0

    def test_finite_time_error_sums_both_strokes(self):
        traj = quintic(1.0)
        r = otto_cycle(cfg(K=16), ENGINE_BATHS, traj)
        strokes = [
            friction_module.friction_energy(cfg(K=16), ThermalBath(beta), traj)
            for beta in (ENGINE_BATHS.beta_A, ENGINE_BATHS.beta_C)
        ]
        assert r.err == strokes[0].err + strokes[1].err
        assert 0.0 < r.err < 1e-10 * (r.E_F_A + r.E_F_C)


class TestPower:
    def test_period_counts_both_strokes(self):
        for tau in (2.0, 4.0):
            r = otto_cycle(cfg(K=32), ENGINE_BATHS, quintic(tau))
            assert r.power == r.W / (2.0 * tau)

    def test_validation(self):
        for thermalization_time in (-1.0, math.nan):
            with pytest.raises(ValueError, match="thermalization_time must be non-negative"):
                otto_cycle(cfg(K=16), ENGINE_BATHS, quintic(1.0),
                           thermalization_time=thermalization_time)

    @pytest.mark.parametrize("machine, traj", ENTRY_POINTS[1::2])
    @pytest.mark.parametrize("thermalization_time", [-2.0, -5.0, math.nan])
    def test_finite_time_cycles_reject_negative_thermalization(
        self, machine, traj, thermalization_time
    ):
        # -2 would divide by zero at tau = 1, -5 would flip the power's sign
        with pytest.raises(ValueError, match="thermalization_time"):
            otto_cycle(cfg(eps=0.06, K=16), BathPair(2.0, 1.9), traj, machine=machine,
                       thermalization_time=thermalization_time)

    def test_finite_time_power_charges_thermalization(self):
        r = otto_cycle(cfg(K=16), ENGINE_BATHS, quintic(1.0), thermalization_time=2.0)
        assert r.power == r.W / 4.0


class TestSweep:
    def test_single_cell_matches_direct_call(self):
        rows = sweep(cfg(K=16), [ENGINE_BATHS], [1.0], quintic)
        direct = otto_cycle(cfg(K=16), ENGINE_BATHS, quintic(1.0))
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

    def test_stroke_failing_its_table_check_raises_in_a_cell_and_is_recorded_in_a_sweep(self):
        # a quintic scaled to half height fails the unit-displacement check
        # of its spectral table: one cell raises it, a sweep records it
        def half(tau):
            delta = quintic(tau).delta
            return Trajectory(PPoly(0.5 * delta.c, delta.x), label="half")

        for machine in ("engine", "refrigerator"):
            with pytest.raises(ValueError, match="unit displacement, got 0.5"):
                otto_cycle(cfg(K=8), ENGINE_BATHS, half(1.0), machine=machine)
            rows = sweep(cfg(K=8), [ENGINE_BATHS], [1.0, 2.0], half, machine=machine)
            assert [row.report for row in rows] == [None, None]
            assert all("unit displacement, got 0.5" in row.error for row in rows)

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
                direct = otto_cycle(
                    cfg(K=8, eps=r.epsilon), BathPair(2.0, 2.0 * r.beta_ratio),
                    quintic(r.tau_omega1),
                )
                assert r.report.W == direct.W

    def test_one_bath_kernel_per_bath_temperature(self, monkeypatch):
        # the kernel build is the friction layer's only occupations call
        built = []
        original = friction_module.occupations

        def counting(beta, omegas):
            built.append((beta, len(omegas)))
            return original(beta, omegas)

        fits = []
        original_fit = friction_module._tail_estimates

        def counting_fit(k_used, totals, noise):
            fits.append((k_used, len(totals)))
            return original_fit(k_used, totals, noise)

        friction_module._bath_kernel.cache_clear()
        monkeypatch.setattr(friction_module, "occupations", counting)
        monkeypatch.setattr(friction_module, "_tail_estimates", counting_fit)
        baths = [BathPair(2.0, 0.4), BathPair(2.0, 1.0), BathPair(3.0, 2.0)]
        taus = [0.5, 1.0, 2.0]
        sweep(cfg(K=16), baths, taus, quintic, epsilons=[0.01, 0.02])
        # one per distinct temperature, none per cell, tau or epsilon
        assert sorted(built) == [(beta, 16) for beta in (0.4, 1.0, 2.0, 3.0)]
        # one tail fit over every (temperature, tau) product
        assert fits == [(16, 4 * 3)]

    def test_kernels_built_once_past_the_kernel_cache_size(self):
        # 41 distinct temperatures overflow the 32-kernel cache; a sweep that
        # ran tau by tau rebuilt every kernel for every tau (161 builds)
        baths = [BathPair(2.0, 2.0 * (0.05 + 0.02 * i)) for i in range(40)]
        friction_module._bath_kernel.cache_clear()
        sweep(cfg(K=256), baths, [0.5, 1.0, 1.5, 2.0], quintic)
        assert friction_module._bath_kernel.cache_info().misses == 41

    @pytest.mark.parametrize("machine, ratios", [
        ("engine", (0.2, 0.5, 0.8)),
        ("refrigerator", (0.991, 0.995, 0.999)),
    ])
    def test_rows_equal_single_calls_bit_for_bit(self, machine, ratios):
        def family(tau):
            if tau == 1.0:
                raise RuntimeError("no profile")
            return quintic(tau)

        baths = [BathPair(2.0, 2.0 * r) for r in ratios]
        base = cfg(K=256)
        rows = sweep(base, baths, [2.0, 0.5, 1.0], family, epsilons=[0.01, 0.005],
                     machine=machine)
        assert len(rows) == 18
        for row in rows:
            cell = cfg(K=256, eps=row.epsilon)
            bath = BathPair(2.0, 2.0 * row.beta_ratio)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    direct = otto_cycle(cell, bath, family(row.tau_omega1), machine=machine)
                    error = ""
            except RuntimeError as exc:
                direct, error = None, str(exc)
            assert row.error == error
            if direct is None:
                assert row.report is None
                continue
            # repr shows every field and tells every float apart, NaN equal
            # to itself
            assert repr(row.report) == repr(direct)
        # the short stroke at 256 modes still flags its truncation tail
        assert [r.report.tail_warning for r in rows if r.tau_omega1 == 0.5] == [True] * 6
        assert sum(r.report is None for r in rows) == 6

    def test_population_frozen_sums_once_per_bath_and_epsilon(self, monkeypatch):
        # each evaluation of the sums takes one occupations call per bath
        built = []
        original = cycle_module.occupations

        def counting(beta, omegas):
            built.append(beta)
            return original(beta, omegas)

        cycle_module._otto_sums.cache_clear()
        monkeypatch.setattr(cycle_module, "occupations", counting)
        baths = [BathPair(2.0, 0.4), BathPair(3.0, 2.0)]
        sweep(cfg(K=16), baths, [0.5, 1.0, 2.0], quintic, epsilons=[0.01, 0.02])
        # (2 baths x 2 epsilons) cells, none per tau
        assert sorted(built) == sorted([0.4, 2.0, 2.0, 3.0] * 2)

    def test_cached_sums_still_warn_and_are_read_only(self):
        # hot baths at K = 4 leave a large population-frozen tail
        hot, baths = cfg(K=4), BathPair(0.2, 0.1)
        cycle_module._otto_sums.cache_clear()
        for _ in range(2):
            with pytest.warns(TruncationWarning, match="increase n_modes"):
                assert otto_cycle(hot, baths).tail_warning
        assert cycle_module._otto_sums.cache_info().hits == 1
        sums = cycle_module._otto_sums(hot, baths)
        assert type(sums) is tuple and len(sums) == 7
        with pytest.raises(TypeError):
            sums[3] = 0.0

    def test_warnings_silenced_once_per_sweep(self, monkeypatch):
        # the cells' warnings are silenced by the sweep's one filter, not
        # caught and re-issued cell by cell
        entered = []

        class Counting(warnings.catch_warnings):
            def __enter__(self):
                entered.append(self)
                return super().__enter__()

        monkeypatch.setattr(warnings, "catch_warnings", Counting)
        baths = [ENGINE_BATHS, BathPair(2.0, 1.5)]
        rows = sweep(cfg(K=8), baths, [0.5, 1.0], quintic, epsilons=[0.01, 0.02])
        assert len(rows) == 8 and all(r.report.tail_warning for r in rows)
        assert len(entered) == 1

    def test_csv_shape(self):
        argv = ["sweep", "--tau-grid", "0.5:1:2", "--beta-a", "2", "--beta-ratio", "0.5",
                "--modes", "8"]
        buf = io.StringIO()
        cli.run(cli.parse_config(argv), stream=buf)
        lines = [ln for ln in buf.getvalue().strip().splitlines() if not ln.startswith("#")]
        assert lines[0].startswith("tau_omega1,beta_ratio,epsilon,Q,W,eta")
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(cfg(K=8), [], [1.0], quintic)
        with pytest.raises(ValueError):
            sweep(cfg(K=8), [ENGINE_BATHS], [], quintic)
        with pytest.raises(ValueError):
            sweep(cfg(K=8), [ENGINE_BATHS], [1.0], quintic, epsilons=[])
        # the sweep and the single cell name an unknown machine alike
        with pytest.raises(ValueError, match="machine must be .* got 'laser'"):
            sweep(cfg(K=8), [ENGINE_BATHS], [1.0], quintic, machine="laser")
        with pytest.raises(ValueError, match="machine must be .* got 'fridge'"):
            otto_cycle(cfg(K=8), ENGINE_BATHS, machine="fridge")


# vacuum cold bath, both baths vacuum (Q_ad = W_ad = 0: a degenerate
# population-frozen denominator), a hot pair whose population-frozen tail is
# flagged, and enough temperatures to overflow the 32-kernel cache
REFERENCE_BATHS = [
    BathPair(math.inf, 1.0),
    BathPair(math.inf, math.inf),
    BathPair(0.3, 0.1),
    BathPair(2.0, 1.9),
] + [BathPair(2.0, 2.0 * (0.05 + 0.03 * i)) for i in range(31)]


def _family(tau):
    if tau == 1.0:
        raise RuntimeError("no profile")
    return quintic(tau)


class TestScalarReference:
    @pytest.mark.parametrize("machine", ["engine", "refrigerator"])
    @pytest.mark.parametrize("include_casimir", [True, False])
    @pytest.mark.parametrize("thermalization_time", [0.0, 0.5])
    def test_sweep_rows_equal_the_scalar_reference(
        self, machine, include_casimir, thermalization_time
    ):
        assert len({b for p in REFERENCE_BATHS for b in (p.beta_A, p.beta_C)}) > 32
        friction_module._bath_kernel.cache_clear()
        rows = sweep(cfg(K=64), REFERENCE_BATHS, [0.3, 1.0, 4.0], _family,
                     epsilons=[0.01, 0.06], machine=machine,
                     include_casimir=include_casimir,
                     thermalization_time=thermalization_time)
        assert len(rows) == len(REFERENCE_BATHS) * 2 * 3
        flagged = set()
        for row, (bath, eps, tau) in zip(rows, [
            (b, e, t) for b in REFERENCE_BATHS for e in (0.01, 0.06) for t in (0.3, 1.0, 4.0)
        ]):
            assert (row.tau_omega1, row.beta_ratio, row.epsilon) == (tau, bath.ratio, eps)
            if tau == 1.0:
                assert row.report is None and row.error == "no profile"
                continue
            expected = reference_cycle(
                cfg(K=64, eps=eps), bath, machine, quintic(tau),
                include_casimir=include_casimir, thermalization_time=thermalization_time,
            )
            assert repr(row.report) == repr(expected)
            flagged.add((expected.tail_warning, expected.eta_defined, expected.mode))
        # both flag values, a degenerate denominator and a dissipating cell occur
        assert {f[0] for f in flagged} == {True, False}
        assert any(f[2] == "dissipator" for f in flagged)

    @pytest.mark.parametrize("machine", ["engine", "refrigerator"])
    @pytest.mark.parametrize("include_casimir", [True, False])
    def test_single_cells_equal_the_scalar_reference(self, machine, include_casimir):
        degenerate, tails = [], []
        # at 4 modes the near-infinite temperatures leave a non-decaying
        # population-frozen tail (estimate inf)
        cells = [(cfg(K=16, eps=eps), bath) for bath in REFERENCE_BATHS[:6] for eps in (0.01, 0.06)]
        for c, bath in cells + [(cfg(K=4), BathPair(1e-4, 1e-4 * 0.99))]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = otto_cycle(c, bath, machine=machine, include_casimir=include_casimir)
                assert repr(got) == repr(
                    reference_cycle(c, bath, machine, include_casimir=include_casimir))
                degenerate.append(not got.eta_defined)
                tails.append(got.tail_estimate)
                got = otto_cycle(c, bath, quintic(0.7), machine=machine,
                                 include_casimir=include_casimir, thermalization_time=0.5)
            expected = reference_cycle(c, bath, machine, quintic(0.7),
                                       include_casimir=include_casimir,
                                       thermalization_time=0.5)
            assert repr(got) == repr(expected)
        assert any(degenerate)
        assert math.inf in tails


class TestOverflowingBath:
    """Population-frozen sums that overflow raise, naming the bath."""

    # each machine at a bath ratio inside its window
    @pytest.mark.parametrize("machine, ratio", [("engine", 0.5), ("refrigerator", 0.995)])
    def test_adiabatic_cycles_raise(self, machine, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta_A = 1e-320 overflows the population-frozen"):
                otto_cycle(cfg(K=4), BathPair(1e-320, ratio * 1e-320), machine=machine)

    @pytest.mark.parametrize("machine, ratio", [("engine", 0.5), ("refrigerator", 0.995)])
    def test_finite_time_cycles_raise(self, machine, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta_A = 1e-307 overflows"):
                otto_cycle(cfg(K=256), BathPair(1e-307, ratio * 1e-307), quintic(1.0),
                           machine=machine)

    def test_hot_bath_is_named(self):
        # at K = 256 the hot bath's sums overflow while the cold one's hold
        with pytest.raises(ValueError, match="beta_C = 1e-307 overflows"):
            otto_cycle(cfg(K=256), BathPair(1.0, 1e-307))

    def test_sweep_raises_rather_than_recording_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta_A = 1e-320 overflows"):
                sweep(cfg(K=4), [BathPair(1e-320, 0.5e-320)], [1.0, 2.0], quintic)


class TestCasimirCancellation:
    def test_nonadiabatic_toggle_bitwise(self):
        on = otto_cycle(cfg(K=16), ENGINE_BATHS, quintic(1.0), include_casimir=True)
        off = otto_cycle(cfg(K=16), ENGINE_BATHS, quintic(1.0), include_casimir=False)
        assert on.Q == off.Q
        assert on.W == off.W
        assert on.eta == off.eta
        assert on.E_A != off.E_A
