import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import HarmonicPulse, transient_coefficient
from fluxshape import pulse as pulse_module
from fluxshape.pulse import _BLOCK, _GRID_MIN, _ROW, _fourier_sum, _grid_sum


def test_validation():
    with pytest.raises(ValueError):
        HarmonicPulse(tau_pulse=0.0)
    with pytest.raises(ValueError):
        HarmonicPulse(tau_pulse=-1.0)
    with pytest.raises(ValueError):
        HarmonicPulse(tau_pulse=math.inf)
    with pytest.raises(ValueError):
        HarmonicPulse(tau_pulse=1.0, a=(1.0,), b=())
    with pytest.raises(ValueError):
        HarmonicPulse(tau_pulse=1.0, a=(math.nan,), b=(0.0,))
    # DC-only pulses are legal
    p = HarmonicPulse(tau_pulse=1.0, a0=2.0)
    assert p.n_harmonics == 0
    assert p.evaluate(0.3) == 2.0


def test_omega_derived_from_period():
    p = HarmonicPulse(tau_pulse=8e-6)
    assert p.omega == pytest.approx(2.0 * math.pi / 8e-6, rel=1e-15)


def test_evaluate_zero_pulse():
    p = HarmonicPulse(tau_pulse=1.0, a=(0.0, 0.0), b=(0.0, 0.0))
    t = np.linspace(0.0, 3.0, 7)
    assert np.all(p.evaluate(t) == 0.0)


def test_evaluate_two_harmonic_points():
    p = HarmonicPulse(tau_pulse=8e-6, a=(0.0, 0.0), b=(1.0, -2.0))
    assert p.evaluate(0.0) == 0.0
    # sin(pi/4) - 2 sin(pi/2) at one eighth of a period
    expected = math.sin(math.pi / 4.0) - 2.0
    assert_allclose(p.evaluate(8e-6 / 8.0), expected, rtol=1e-12)


def test_evaluate_scalar_and_array_agree():
    p = HarmonicPulse(tau_pulse=2.0, a0=0.1, a=(0.3, -0.2), b=(1.0, 0.5))
    t = np.array([0.0, 0.17, 1.9])
    v = p.evaluate(t)
    assert v.shape == t.shape
    for i, ti in enumerate(t):
        assert p.evaluate(float(ti)) == v[i]


def test_periodicity():
    p = HarmonicPulse(tau_pulse=1.3e-6, a0=0.2, a=(0.4, -0.1, 0.05), b=(1.0, -0.7, 0.3))
    t = np.linspace(0.0, 10.0 * p.tau_pulse, 1000, endpoint=False)
    v1 = p.evaluate(t)
    v2 = p.evaluate(t + p.tau_pulse)
    scale = np.max(np.abs(v1))
    assert_allclose(v2, v1, rtol=0.0, atol=1e-12 * scale)


def test_evaluate_linearity():
    rng = np.random.default_rng(7)
    tau_pulse = 3.1e-6
    p1 = HarmonicPulse(tau_pulse, a0=rng.uniform(-1, 1), a=tuple(rng.uniform(-1, 1, 4)), b=tuple(rng.uniform(-1, 1, 4)))
    p2 = HarmonicPulse(tau_pulse, a0=rng.uniform(-1, 1), a=tuple(rng.uniform(-1, 1, 4)), b=tuple(rng.uniform(-1, 1, 4)))
    combined = HarmonicPulse(
        tau_pulse,
        a0=p1.a0 + p2.a0,
        a=tuple(x + y for x, y in zip(p1.a, p2.a)),
        b=tuple(x + y for x, y in zip(p1.b, p2.b)),
    )
    t = np.linspace(0.0, tau_pulse, 101)
    assert_allclose(combined.evaluate(t), p1.evaluate(t) + p2.evaluate(t), rtol=0.0, atol=1e-12)


def test_condition_one_residual():
    assert HarmonicPulse(1.0, a=(0.0, 0.0), b=(1.0, -2.0)).condition_one_residual() == 0.0
    assert HarmonicPulse(1.0, a=(1.0, 2.0), b=(0.0, 0.0)).condition_one_residual() == 3.0
    assert HarmonicPulse(1.0, a0=-3.0, a=(1.0, 2.0), b=(0.0, 0.0)).condition_one_residual() == 0.0


def test_condition_one_equals_value_at_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 9)
        p = HarmonicPulse(1e-6, a0=rng.uniform(-1, 1), a=tuple(rng.uniform(-1, 1, n)), b=tuple(rng.uniform(-1, 1, n)))
        # the series sums from the top harmonic down and condition one in index
        # order, so they agree to the rounding of an (N+1)-term sum in either
        # order: N*eps*(|a0| + sum|a_n|)
        bound = n * np.finfo(float).eps * (abs(p.a0) + np.sum(np.abs(p.a)))
        assert abs(p.evaluate(0.0) - p.condition_one_residual()) <= bound
        # tan(0) = 0 makes z exactly 1, so the series at t = 0 is that top-down
        # sum bit for bit
        top_down = p.a[-1]
        for an in p.a[-2::-1]:
            top_down += an
        assert p.evaluate(0.0) == p.a0 + top_down


def test_condition_three_residual_values():
    assert HarmonicPulse(1.0).condition_three_residual(0.5) == 0.0
    # single sine at omega*tau = 8.79: 1/(1 + 8.79^2)
    p = HarmonicPulse(tau_pulse=8e-6, a=(0.0,), b=(1.0,))
    tau = 8.79 / p.omega
    expected = 1.0 / (1.0 + 8.79**2)
    assert_allclose(p.condition_three_residual(tau), expected, rtol=1e-12)
    assert_allclose(p.condition_three_residual(tau), 0.012781, rtol=1e-3)
    with pytest.raises(ValueError):
        p.condition_three_residual(0.0)


def test_sine_only_current_cosine_content_tracks_transient_coefficient():
    # for sine-only pulses the two residuals differ only by a factor -omega*tau
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 9)
        p = HarmonicPulse(5e-6, a=tuple(0.0 for _ in range(n)), b=tuple(rng.uniform(-1, 1, n)))
        tau = float(rng.uniform(0.1, 100.0)) / p.omega
        lhs = p.condition_three_residual(tau) * (-p.omega * tau)
        rhs = transient_coefficient(p, tau)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_sample_zero_pulse():
    p = HarmonicPulse(tau_pulse=1.0, a=(0.0,), b=(0.0,))
    t, v = p.sample(0.1, 2)
    assert np.all(v == 0.0)
    assert t[0] == 0.0


def test_sample_matches_evaluate():
    p = HarmonicPulse(tau_pulse=2e-6, a0=0.3, a=(0.5,), b=(-1.0,))
    t, v = p.sample(1e-7, 3)
    assert np.array_equal(v, p.evaluate(t))


def test_sample_quarter_period_grid():
    p = HarmonicPulse(tau_pulse=1.0, a=(0.0,), b=(1.0,))
    t, v = p.sample(0.25, 1)
    # half-open over one period: the period endpoint is excluded
    assert t.size == 4
    assert_allclose(v, [0.0, 1.0, 0.0, -1.0], atol=1e-12)


def test_sample_step_bounds():
    p = HarmonicPulse(tau_pulse=1.0, a=(0.0,), b=(1.0,))
    with pytest.raises(ValueError):
        p.sample(0.2500001, 1)
    with pytest.raises(ValueError):
        p.sample(0.0, 1)
    with pytest.raises(ValueError):
        p.sample(0.1, 0)
    # a period count is never truncated: 2.5 is not 2, True is not 1
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^n_periods must be an integer, got {bad}$"):
            p.sample(0.1, bad)
    t, _ = p.sample(0.1, 3)
    assert t.size == 30


def test_many_harmonics():
    # no cap on the harmonic count; 16 harmonics evaluate and stay periodic
    rng = np.random.default_rng(5)
    p = HarmonicPulse(1e-6, a=tuple(rng.uniform(-1, 1, 16)), b=tuple(rng.uniform(-1, 1, 16)))
    t = np.linspace(0.0, p.tau_pulse, 257)
    v = p.evaluate(t)
    assert np.all(np.isfinite(v))
    assert_allclose(p.evaluate(t + 3 * p.tau_pulse), v, rtol=0.0, atol=1e-11 * np.max(np.abs(v)))


def _whole_array_fourier_sum(t, omega, c, s):
    """The kernel's half-angle Horner sum over the whole array at once, without blocks."""
    if c.size == 0:
        return np.zeros(np.shape(t))
    u = np.tan(np.multiply(t, 0.5 * omega))
    r = 2.0 / (u * u + 1.0)
    z = np.empty(u.shape, dtype=complex)
    np.subtract(r, 1.0, out=z.real)
    np.multiply(u, r, out=z.imag)
    return _horner(z, c - 1j * s)


def _cos_sin_fourier_sum(t, omega, c, s):
    """The Horner sum with z from a cosine and a sine: the accuracy reference."""
    theta = np.multiply(t, omega)
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return _horner(z, c - 1j * s)


def _horner(z, d):
    acc = np.full(z.shape, d[-1])
    out = np.empty_like(acc)
    for dn in d[-2::-1]:
        np.multiply(acc, z, out=out)
        np.add(out, dn, out=acc)
    np.multiply(acc, z, out=out)
    return out.real


@pytest.mark.parametrize("n_harm", [0, 1, 2, 9])
@pytest.mark.parametrize(
    "shape",
    [(), (1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (2 * _BLOCK + 1,), (200_001,), (3, _BLOCK - 5)],
    ids=str,
)
def test_fourier_sum_blocks_match_the_whole_array_sum(shape, n_harm):
    # a 0-d time, one point, a block short of, at, just past and past two
    # blocks, a long grid and a 2-D grid whose rows straddle the blocks, at
    # phases of either sign: the shape of t, and every bit of the whole-array sum
    rng = np.random.default_rng(len(shape) + int(np.prod(shape)) + n_harm)
    omega = 2.0 * math.pi / 8e-6
    c, s = rng.uniform(-1, 1, n_harm), rng.uniform(-1, 1, n_harm)
    t = np.asarray(rng.uniform(-1000.0, 1000.0, shape) / omega)
    got = _fourier_sum(t, omega, c, s)
    ref = np.asarray(_whole_array_fourier_sum(t, omega, c, s))
    assert got.shape == shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_fourier_sum_half_angle_agrees_with_cos_sin():
    # z = e^{iwt} from tan(wt/2) against numpy's cosine and sine, read through
    # the kernel itself (c = 1 gives cos, s = 1 gives sin, both exactly), and
    # the whole sum against the cos/sin Horner sum, at |wt| up to 1e6
    eps = np.finfo(float).eps
    rng = np.random.default_rng(18)
    omega = 2.0 * math.pi / 8e-6
    t = rng.uniform(-1e6, 1e6, 20_001) / omega
    theta = t * omega
    one, zero = np.ones(1), np.zeros(1)
    assert np.max(np.abs(_fourier_sum(t, omega, one, zero) - np.cos(theta))) <= 2 * eps
    assert np.max(np.abs(_fourier_sum(t, omega, zero, one) - np.sin(theta))) <= 2 * eps
    for n_harm in range(1, 17):
        c, s = rng.uniform(-1, 1, n_harm), rng.uniform(-1, 1, n_harm)
        bound = 8 * eps * np.sum(np.abs(c) + np.abs(s))
        assert np.max(np.abs(_fourier_sum(t, omega, c, s) - _cos_sin_fourier_sum(t, omega, c, s))) <= bound


def _uniform_grid(kind, n_points, span):
    """The uniform grids the package and its callers make, ``n_points`` long and about ``span`` wide."""
    if kind == "linspace":
        return np.linspace(0.0, span, n_points)
    if kind == "linspace-offset":
        return np.linspace(-0.3 * span, 0.7 * span, n_points)
    if kind == "arange":
        return np.arange(n_points) * (span / n_points)
    if kind == "arange-offset":
        return np.arange(n_points) * (span / n_points) - 0.25 * span
    # the RK4 oracle's midpoints: the steps of a linspace grid, halved in
    # place and added to the nodes they start from
    nodes = np.linspace(0.0, span, n_points + 1)
    mid = np.diff(nodes)
    mid *= 0.5
    mid += nodes[:-1]
    return mid


def _long_double_fourier_sum(t, omega, c, s):
    """The explicit sum in ``np.longdouble`` at the float times ``t``, in slices that keep memory small."""
    ld = np.longdouble
    n = np.arange(1, c.size + 1).astype(ld)
    out = np.empty(t.size, dtype=ld)
    for start in range(0, t.size, 8192):
        theta = np.multiply.outer(t[start : start + 8192].astype(ld), n) * ld(omega)
        out[start : start + 8192] = (c.astype(ld) * np.cos(theta) + s.astype(ld) * np.sin(theta)).sum(axis=-1)
    return out


@pytest.mark.parametrize("n_points", [_GRID_MIN, _GRID_MIN + 1, 20 * _ROW - 1, 20 * _ROW, 20 * _ROW + 1, 200_001])
@pytest.mark.parametrize("kind", ["linspace", "linspace-offset", "arange", "arange-offset", "midpoints"])
def test_fourier_sum_matrix_path_matches_a_long_double_sum(kind, n_points):
    # grids at the threshold, at the row edges and at 200 001 points take the
    # matrix path on every whole row; the sum, the leftover's Horner points
    # included, stays within 2 eps N (1 + max|w t|) sum(|c_n| + |s_n|) of a
    # long-double sum at the grid's own float times, for N = 0, 1, 2, 9 and 16
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.fail("np.longdouble has no extra precision on this platform, so it cannot serve as the reference")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n_points)
    omega = 2.0 * math.pi / 8e-6
    t = _uniform_grid(kind, n_points, float(rng.uniform(100.0, 2000.0)) / omega)
    assert _grid_sum(t, 0.5 * omega, np.ones(1, dtype=complex), np.empty(t.size)) == n_points - n_points % _ROW
    # every point up to about 16 000, else a stride through the grid; the last
    # whole row and the leftover always
    checked = np.union1d(np.arange(0, n_points, max(1, n_points // 16_384)), np.arange(n_points - 2 * _ROW, n_points))
    for n_harm in (0, 1, 2, 9, 16):
        c, s = rng.uniform(-1, 1, n_harm), rng.uniform(-1, 1, n_harm)
        got = _fourier_sum(t, omega, c, s)
        ref = _long_double_fourier_sum(t[checked], omega, c, s)
        bound = 2.0 * eps * n_harm * (1.0 + np.max(np.abs(omega * t))) * np.sum(np.abs(c) + np.abs(s))
        assert got.shape == t.shape
        assert np.max(np.abs(got[checked] - ref), initial=0.0) <= bound, n_harm


def _moved(t, index, ulps):
    """``t`` with node ``index`` moved up by ``ulps`` ulp of the grid's larger end."""
    t = t.copy()
    t[index] += ulps * np.spacing(max(abs(t[0]), abs(t[-1])))
    return t


_GRID = np.linspace(-0.2e-4, 1.6e-4, 20 * _ROW + 7)
_OMEGA = 2.0 * math.pi / 8e-6


@pytest.mark.parametrize(
    ("t", "omega"),
    [
        (_moved(_GRID, 10 * _ROW, 3), _OMEGA),  # the middle node, tested first
        (_moved(_GRID, 3 * _ROW + 17, 3), _OMEGA),  # a node of a whole row
        (_moved(_GRID, -3, -3), _OMEGA),  # a node of the leftover
        (_GRID[: 20 * _ROW].reshape(20, _ROW), _OMEGA),  # 2-D
        (np.asarray(_GRID[100]), _OMEGA),  # 0-d
        (_GRID[: _GRID_MIN - 1], _OMEGA),  # a point short of the threshold
        # a step that overflows, at phases that do not
        ((np.arange(5000) - 2500) * 7e304, 1e-3),
    ],
    ids=["middle-node", "row-node", "leftover-node", "2-d", "0-d", "short", "overflowing-step"],
)
def test_fourier_sum_matrix_path_is_not_taken_off_a_uniform_1d_grid(t, omega):
    # any input the matrix path cannot take is the Horner sum bit for bit
    rng = np.random.default_rng(27)
    for n_harm in (1, 2, 9):
        c, s = rng.uniform(-1, 1, n_harm), rng.uniform(-1, 1, n_harm)
        got = _fourier_sum(t, omega, c, s)
        ref = np.asarray(_whole_array_fourier_sum(t, omega, c, s))
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_fourier_sum_matrix_path_takes_a_grid_within_its_tolerance():
    # a node moved by 1 ulp keeps the matrix path; by 3 ulp, the Horner path
    d = np.array([0.3 - 1.0j, -0.2 + 0.5j])
    for index in (10 * _ROW, 3 * _ROW + 17, -3):
        assert _grid_sum(_moved(_GRID, index, 1), 0.5 * _OMEGA, d, np.empty(_GRID.size)) == 20 * _ROW
        assert _grid_sum(_moved(_GRID, index, 3), 0.5 * _OMEGA, d, np.empty(_GRID.size)) == 0


def _broadcast_grid_sum(t, half_omega, d, out):
    """The matrix path with its whole-row node test in the broadcast form ``|T_r - (-k*step) - t| <= tol``."""
    rows, rest = divmod(t.size, _ROW)
    first, last = float(t[0]), float(t[-1])
    step = (last - first) / (t.size - 1)
    if not math.isfinite(step):
        return 0
    angles = np.empty(rows + (rest > 0) + _ROW)
    starts, back = angles[:-_ROW], angles[-_ROW:]
    np.multiply(np.arange(0, t.size, _ROW), step, out=starts)
    starts += first
    np.multiply(np.arange(0, -_ROW, -1), step, out=back)
    tolerance = pulse_module._GRID_ULP * np.spacing(max(abs(first), abs(last)))
    middle = abs(starts[rows // 2] - t[rows // 2 * _ROW])
    leftover = np.abs(starts[-1] - back[:rest] - t[rows * _ROW :])
    if not (middle <= tolerance and np.all(leftover <= tolerance)):
        return 0
    grid = out[: rows * _ROW].reshape(rows, _ROW)
    np.subtract(starts[:rows, None], back, out=grid)
    grid -= t[: rows * _ROW].reshape(rows, _ROW)
    np.abs(grid, out=grid)
    if not np.max(grid) <= tolerance:
        return 0
    powers = pulse_module._powers(angles, half_omega, d.size)
    left = np.multiply(powers[:rows], d, out=powers[:rows])
    np.matmul(left.view(float), powers[-_ROW:].view(float).T, out=grid)
    return grid.size


def _node_test_grids():
    """``(id, t)``: uniform grids of each kind and size, then grids with one node nudged or made nan."""
    rng = np.random.default_rng(28)
    omega = 2.0 * math.pi / 8e-6
    for kind in ("linspace", "linspace-offset", "arange-offset", "midpoints"):
        for n_points in (_GRID_MIN, _GRID_MIN + 1, 20 * _ROW - 1, 20 * _ROW + 1, 200_001):
            for draw in range(3):
                yield f"{kind}-{n_points}-{draw}", _uniform_grid(kind, n_points, float(rng.uniform(100.0, 2000.0)) / omega)
    base = np.linspace(-0.2e-4, 1.6e-4, 20 * _ROW + 7)
    places = {"row-edge": 7 * _ROW, "row-end": 7 * _ROW - 1, "middle": 10 * _ROW, "leftover": -3}
    for place, index in places.items():
        for ulps in (-3, -2, -1, 1, 2, 3):
            yield f"{place}{ulps:+d}ulp", _moved(base, index, ulps)
        nan = base.copy()
        nan[index] = math.nan
        yield f"{place}-nan", nan


@pytest.mark.parametrize(("name", "t"), list(_node_test_grids()), ids=lambda v: v if isinstance(v, str) else "")
def test_grid_sum_node_test_decides_as_the_broadcast_form(name, t):
    # the nodes from one two-term matrix product and a max/min bound take
    # and refuse the same grids as their broadcast from the row starts and a
    # bound on |.|, and the sum keeps every bit
    rng = np.random.default_rng(len(name))
    d = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    half_omega = math.pi / 8e-6
    got, ref = np.empty(t.size), np.empty(t.size)
    done = _grid_sum(t, half_omega, d, got)
    assert done == _broadcast_grid_sum(t, half_omega, d, ref)
    assert np.array_equal(got[:done].view(np.int64), ref[:done].view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_refuses_a_non_finite_time(bad):
    p = HarmonicPulse(8e-6, a0=0.1, a=(0.3,), b=(1.0,))
    with pytest.raises(ValueError, match=rf"^t must be finite, got {bad!r}$"):
        p.evaluate(bad)
    with pytest.raises(ValueError, match=rf"^t must be finite, got {bad!r} at index 2$"):
        p.evaluate(np.array([0.0, 1e-6, bad]))
    # a periodic series is defined at any finite time, negative ones included
    assert p.evaluate(-1.0) == p.evaluate(np.array([-1.0]))[0]
