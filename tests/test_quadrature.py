import ast
import math
from pathlib import Path

import numpy as np
import pytest

import casotto
from casotto.quadrature import (
    ConvergenceError,
    QuadratureSpec,
    integrate_1d,
    integrate_2d_oracle,
)
from casotto.trajectory import quintic

SPEC = QuadratureSpec()


def test_sine_over_half_period():
    r = integrate_1d(np.sin, 0.0, math.pi, 1.0, SPEC)
    assert r.value == pytest.approx(2.0, rel=1e-12)


def test_oscillatory_cosine_closed_form():
    r = integrate_1d(lambda t: np.cos(10.0 * t), 0.0, 1.0, 10.0, SPEC)
    assert r.value == pytest.approx(math.sin(10.0) / 10.0, rel=1e-12)
    assert abs(r.value - math.sin(10.0) / 10.0) <= 10.0 * r.error


def test_gaussian_exactness_on_polynomials():
    # degree 2*panel_order - 1 is integrated exactly by the panel rule
    deg = 2 * SPEC.panel_order - 1
    coeffs = np.arange(1.0, deg + 2.0)

    def poly(t):
        return np.polyval(coeffs, t)

    exact = np.polyval(np.polyint(coeffs), 1.0) - np.polyval(np.polyint(coeffs), -1.0)
    r = integrate_1d(poly, -1.0, 1.0, 0.0, SPEC)
    assert r.value == pytest.approx(exact, rel=5e-15)


def test_zero_integral_converges_via_roundoff_floor():
    # odd integrand over a symmetric panel layout cancels exactly; the
    # relative criterion alone could never terminate
    r = integrate_1d(lambda t: t * np.cos(7.0 * t**2), -2.0, 2.0, 28.0, SPEC)
    assert abs(r.value) < 1e-12
    assert r.error < 1e-10


def test_convergence_failure_carries_best_estimate():
    spec = QuadratureSpec(rel_tol=1e-16, max_panels=32)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, 50)

    def jagged(t):
        # effectively noise: never meets 1e-16 agreement
        return np.interp(t, np.sort(xs), rng.normal(size=50))

    with pytest.raises(ConvergenceError) as info:
        integrate_1d(jagged, 0.0, 1.0, 0.0, spec)
    assert np.isfinite(info.value.value)
    assert info.value.panels == 32


def test_2d_constant_and_product_closed_forms():
    r = integrate_2d_oracle(lambda t1, t2: np.ones_like(t1 * t2), 0.0, 1.0, 0.0, SPEC)
    assert r.value == pytest.approx(1.0, rel=1e-13)
    r = integrate_2d_oracle(lambda t1, t2: t1 * t2, 0.0, 1.0, 0.0, SPEC)
    assert r.value == pytest.approx(0.25, rel=1e-13)


def test_2d_separability_identity_for_velocity_kernel():
    # double integral of f(t1) f(t2) cos(w (t1 - t2)) equals C^2 + S^2
    tr = quintic(1.0)
    omega = 2.0 * math.pi
    f = tr.ddelta
    two_d = integrate_2d_oracle(
        lambda t1, t2: f(t1) * f(t2) * np.cos(omega * (t1 - t2)), 0.0, 1.0, omega, SPEC
    )
    C = integrate_1d(lambda t: f(t) * np.cos(omega * t), 0.0, 1.0, omega, SPEC)
    S = integrate_1d(lambda t: f(t) * np.sin(omega * t), 0.0, 1.0, omega, SPEC)
    expected = C.value**2 + S.value**2
    combined_err = two_d.error + 2.0 * (abs(C.value) * C.error + abs(S.value) * S.error)
    assert abs(two_d.value - expected) <= 10.0 * combined_err + 1e-15


@pytest.mark.parametrize("seed", range(10))
def test_separability_random_frequencies(seed):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.5, 2.0)
    omega = rng.uniform(0.0, 20.0)
    tr = quintic(tau)
    f = tr.ddelta
    two_d = integrate_2d_oracle(
        lambda t1, t2: f(t1) * f(t2) * np.cos(omega * (t1 - t2)),
        0.0,
        tau,
        omega,
        SPEC,
    )
    C = integrate_1d(lambda t: f(t) * np.cos(omega * t), 0.0, tau, omega, SPEC)
    S = integrate_1d(lambda t: f(t) * np.sin(omega * t), 0.0, tau, omega, SPEC)
    expected = C.value**2 + S.value**2
    combined_err = two_d.error + 2.0 * (abs(C.value) * C.error + abs(S.value) * S.error)
    assert abs(two_d.value - expected) <= 10.0 * combined_err + 1e-15


# closed-form battery: reported error must never undershoot the actual error
_BATTERY = [
    (lambda t: np.sin(t), 0.0, math.pi, 1.0, 2.0),
    (lambda t: np.cos(10.0 * t), 0.0, 1.0, 10.0, math.sin(10.0) / 10.0),
    (lambda t: np.cos(37.0 * t), 0.0, 2.0, 37.0, math.sin(74.0) / 37.0),
    (lambda t: t**3, 0.0, 1.0, 0.0, 0.25),
    (lambda t: np.exp(t), 0.0, 1.0, 0.0, math.e - 1.0),
    (lambda t: np.exp(-t) * np.cos(5.0 * t), 0.0, 3.0, 5.0,
     (1.0 - math.exp(-3.0) * (math.cos(15.0) - 5.0 * math.sin(15.0))) / 26.0),
    (lambda t: t * np.sin(8.0 * t), 0.0, 2.0, 8.0,
     (math.sin(16.0) - 16.0 * math.cos(16.0)) / 64.0),
    (lambda t: 1.0 / (1.0 + t**2), 0.0, 1.0, 0.0, math.pi / 4.0),
    (lambda t: np.sinh(t), -1.0, 2.0, 0.0, math.cosh(2.0) - math.cosh(1.0)),
    (lambda t: np.sin(t) ** 2, 0.0, math.pi, 2.0, math.pi / 2.0),
    (lambda t: np.cos(t) * np.cos(9.0 * t), 0.0, 1.0, 10.0,
     math.sin(10.0) / 20.0 + math.sin(8.0) / 16.0),
    (lambda t: np.sqrt(t + 1.0), 0.0, 3.0, 0.0, 14.0 / 3.0),
    (lambda t: np.exp(-(t**2)), -2.0, 2.0, 0.0, math.sqrt(math.pi) * math.erf(2.0)),
    (lambda t: np.cos(2.0 * t) * np.exp(np.sin(t)), 0.0, 1.0, 3.0, None),
    (lambda t: t**7 - 3.0 * t**2, -1.0, 1.0, 0.0, -2.0),
    (lambda t: np.sin(25.0 * t) * np.sin(24.0 * t), 0.0, 1.0, 49.0,
     math.sin(1.0) / 2.0 - math.sin(49.0) / 98.0),
    (lambda t: np.log1p(t), 0.0, 1.0, 0.0, 2.0 * math.log(2.0) - 1.0),
    (lambda t: np.cos(50.0 * t), 0.0, 1.0, 50.0, math.sin(50.0) / 50.0),
    (lambda t: 3.0 * np.ones_like(t), -5.0, 5.0, 0.0, 30.0),
    (lambda t: t * np.exp(t), 0.0, 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("case", range(len(_BATTERY)))
def test_error_estimate_honesty(case):
    f, a, b, wmax, exact = _BATTERY[case]
    r = integrate_1d(f, a, b, wmax, SPEC)
    if exact is None:
        # no closed form; reference at doubled resolution
        fine = integrate_1d(f, a, b, wmax, QuadratureSpec(rel_tol=1e-14))
        exact = fine.value
    assert abs(r.value - exact) <= max(r.error, 4e-16 * abs(exact))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_period=2)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        integrate_1d(np.sin, 1.0, 0.0, 1.0, SPEC)


def _imported_modules(path: Path) -> set[str]:
    """Absolute dotted names a casotto module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["casotto" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "module", ["cli", "cycle", "friction", "trajectory", "fock_oracle", "spectrum"]
)
def test_production_modules_do_not_import_the_oracle(module):
    # the panel quadrature is the reference for the closed forms, so no
    # production path may come to depend on it
    path = Path(casotto.__file__).parent / f"{module}.py"
    imported = _imported_modules(path)
    assert not {n for n in imported if n.split(".")[:2] == ["casotto", "quadrature"]}
