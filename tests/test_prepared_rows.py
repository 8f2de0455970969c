"""Series rows: every evaluation, which builds its row and sums it, gives to the bit what the
unprepared arithmetic (copied below from the evaluator it replaced) gives, and a series keeps
nothing an evaluation changes (equality, hashing, pickles and threads see the same series)."""

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from pfq_oracle import CATALOG_SPECS

from qlaplace import (
    IdealGasModel,
    OscillatorModel,
    PowerSeriesTransform,
    QLaplaceError,
    QParam,
    Sine,
    TaylorSeries,
    WidderConfig,
    WidderEstimate,
    catalog_transform,
    density_of_states,
    q_post_widder,
    series_invert,
)
from qlaplace.inverse import _richardson_weights
from qlaplace.qmath import _log_power_map, _log_q_poly, _log_term_sum, _real_arg, xi_factor
from qlaplace.statmech import DensityOfStates

# --------------------------------------------------------------------------
# the unprepared arithmetic: each call rebuilds its weights and sums them as one array


def old_log_term_sum(log_w, sign, powers, x, what):
    log_x = np.log(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * np.ndim(log_w))
    exponent = log_w + log_x * powers
    if exponent.max(initial=-math.inf) < 709.0 - math.log(max(exponent.shape[-1], 1)):
        return (np.exp(exponent) * sign).sum(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (np.exp(exponent) * sign).sum(axis=-1)
    if not np.all(np.isfinite(sums)):
        raise QLaplaceError(f"{what} overflows double precision despite log-domain handling")
    return sums


def old_term_sum(F, k, s):
    arr = _real_arg("s", s, arrays=True)
    n, log_w, sign = F._log_form
    if k:
        log_fact = _log_power_map(0.0, (len(F.coeffs) + k).bit_length())
        log_w, sign = log_w + (log_fact[n + k] - log_fact[n]), -sign if k % 2 else sign
    out = old_log_term_sum(log_w, sign, -1.0 - k - n, arr, f"F^({k})(s)")
    return out.reshape(arr.shape) if np.ndim(arr) else float(out[0])


def old_extrapolate(ks, values, enabled):
    ks, values = [int(k) for k in ks], np.asarray(values, dtype=float)
    if not enabled:
        return [list(map(WidderEstimate, ks, row)) for row in values.tolist()]
    extr = (values @ _richardson_weights(tuple(ks)).T).tolist()
    for row_e in extr:
        row_e[0] = None
    return [list(map(WidderEstimate, ks, row, row_e)) for row, row_e in zip(values.tolist(), extr)]


def old_widder_sums(log_w, sign, p0, x, ks):
    n, log_r = len(log_w), _log_q_poly(tuple(1.0 / k for k in ks), p0, len(log_w))
    return old_log_term_sum(log_w + log_r, sign, p0 + np.arange(n), x, "estimate")


def old_post_widder(q, F, t, cfg):
    t = _real_arg("t", t)
    n, log_c, sign_c = F._log_form
    size = len(F.coeffs)
    log_w, sign = np.full(size, -math.inf), np.zeros(size)
    log_w[n] = log_c - _log_power_map(0.0 if cfg.fixed_m else q.eps, size.bit_length())[n]
    sign[n] = sign_c
    if cfg.fixed_m:
        log_w += math.log(2.0 - q.q) - np.arange(size) * math.log(xi_factor(q, cfg.fixed_m))
    values = old_widder_sums(log_w, sign, 0.0, [t], cfg.k_schedule)
    return old_extrapolate(cfg.k_schedule, values, cfg.extrapolate)[0]


def old_density_of_states(q, model, E_grid, cfg):
    m = model.transform_power
    energies = _real_arg("E", E_grid, arrays=True).tolist()
    log_w = model.log_prefactor - math.lgamma(m)  # the weight (2-q) C/(Gamma(m) xi**(m-1)), q_poly cancelled
    values = old_widder_sums(np.array([log_w]), np.ones(1), m - 1.0, energies, cfg.k_schedule)
    per_e, samples = [], []
    for e, ests in zip(energies, old_extrapolate(cfg.k_schedule, values, cfg.extrapolate)):
        last = ests[-1]
        per_e.append((e, tuple(ests)))
        samples.append((e, last.value if last.extrapolated is None else last.extrapolated))
    return DensityOfStates(model.log_prefactor - math.lgamma(m), m - 1.0, tuple(samples), tuple(per_e))


def old_taylor(T, t):
    arr = np.asarray(_real_arg("t", t, -math.inf, arrays=True))
    n, log_a, sign = T._log_form
    y, signs = np.abs(arr).reshape(-1), np.where(arr.reshape(-1, 1) < 0.0, sign * (1 - 2 * (n % 2)), sign)
    out = np.where(y > 0.0, old_log_term_sum(log_a, signs, n, y.clip(sys.float_info.min), "f(t)"), T.coeffs[0])
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def outcome(fn, *args):
    """fn(*args) as a comparable value: a float or a list of floats, or the raised error."""
    try:
        out = fn(*args)
    except QLaplaceError as exc:
        return type(exc), str(exc)
    return out.tolist() if isinstance(out, np.ndarray) else out


# --------------------------------------------------------------------------
# identity with the unprepared arithmetic

QS = (0.3, 0.6, 0.9, 1.0)
ORDERS = (0, 1, 2, 4, 8, 16, 32, 64)


@pytest.mark.parametrize("n_terms", (40, 200))
@pytest.mark.parametrize("qv", QS)
@pytest.mark.parametrize("f", CATALOG_SPECS, ids=lambda f: f.label)
def test_value_and_derivatives_match_unprepared(f, qv, n_terms):
    q = QParam(qv)
    s_lo = max(catalog_transform(q, f, 40).s_min, 0.4)
    scalars = (s_lo, 1.7 * s_lo, 6.0 * s_lo)
    grid = s_lo * 8.0 ** np.linspace(0.0, 1.0, 16)
    F_scalar, F_array = catalog_transform(q, f, n_terms), catalog_transform(q, f, n_terms)
    for k in ORDERS:
        for s in scalars:  # the first s of each k is the cold call, the rest warm
            want = outcome(old_term_sum, F_scalar, k, s)
            for _ in range(2):
                got = outcome(F_scalar.derivative_value, k, s)
                assert got == want and type(got) is type(want), (k, s)
        for s in (grid, grid.reshape(4, 4), np.float64(scalars[1]), np.array(scalars[2])):
            want = outcome(old_term_sum, F_array, k, s)
            for _ in range(2):
                assert outcome(F_array.derivative_value, k, s) == want, (k, s)
        if not k:
            assert outcome(F_scalar.value, scalars[0]) == outcome(old_term_sum, F_scalar, 0, scalars[0])
            assert outcome(F_array.value, grid) == outcome(old_term_sum, F_array, 0, grid)


def test_scalar_sweep_matches_unprepared():
    # many scalars, so that a scalar log rounded differently from the array one would show
    q, rng = QParam(0.6), np.random.default_rng(7)
    F = catalog_transform(q, Sine(1.0), 40)
    for s in (F.s_min * np.exp(rng.uniform(0.0, 3.0, 10000))).tolist():
        assert F.value(s) == old_term_sum(F, 0, s), s
        assert F.derivative_value(5, s) == old_term_sum(F, 5, s), s
    T = series_invert(q, F)
    for t in rng.uniform(-T.t_max, T.t_max, 10000).tolist():
        assert T(t) == old_taylor(T, t), t
    for t in rng.uniform(0.05, 1.0, 2000).tolist():
        assert q_post_widder(q, F, t) == old_post_widder(q, F, t, WidderConfig()), t


SCHEDULES = (
    WidderConfig(),
    WidderConfig((3, 7, 20, 50), extrapolate=False),
    WidderConfig((16, 32, 64), fixed_m=2, extrapolate=False),
    WidderConfig((4, 9, 25, 60), fixed_m=3),
)


@pytest.mark.parametrize("qv", QS)
@pytest.mark.parametrize("f", CATALOG_SPECS, ids=lambda f: f.label)
def test_post_widder_matches_unprepared(f, qv):
    q = QParam(qv)
    F = catalog_transform(q, f, 40)
    for cfg in SCHEDULES:
        for t in (0.3, 0.7, 1.0):  # cold, then warm twice on the same row
            want = outcome(old_post_widder, q, F, t, cfg)
            got = outcome(q_post_widder, q, F, t, cfg)
            assert got == want, (cfg, t)
            assert all(type(e) is WidderEstimate and type(e.k) is int for e in got), cfg


@pytest.mark.parametrize("extrapolate", (True, False))
@pytest.mark.parametrize("qv", (0.2, 0.6, 1.0))
@pytest.mark.parametrize("model", (IdealGasModel(3, 2), IdealGasModel(1, 7), OscillatorModel(2, 5),
                                   OscillatorModel(1, 150)), ids=repr)
def test_density_of_states_matches_unprepared(model, qv, extrapolate):
    q, m = QParam(qv), model.transform_power
    energies = [e * m for e in (0.1, 0.35, 0.8, 1.2, 2.0)]
    for cfg in (WidderConfig(extrapolate=extrapolate), WidderConfig((4, 8, 16), extrapolate=extrapolate)):
        want = outcome(old_density_of_states, q, model, energies, cfg)
        got = outcome(density_of_states, q, model, energies, cfg)
        assert got == want, cfg
        assert all(type(e) is WidderEstimate for _, ests in got.k_estimates for e in ests)


@pytest.mark.parametrize("qv", QS)
@pytest.mark.parametrize("f", CATALOG_SPECS, ids=lambda f: f.label)
def test_taylor_matches_unprepared(f, qv):
    q = QParam(qv)
    T_scalar, T_array = (series_invert(q, catalog_transform(q, f, 21)) for _ in range(2))
    t_max = T_scalar.t_max
    grid = np.concatenate([np.linspace(-t_max, t_max, 41), [0.0, -0.0, 1e-300, -1e-300]])
    for t in grid.tolist():
        want = outcome(old_taylor, T_scalar, t)
        for _ in range(2):
            got = outcome(T_scalar, t)
            assert got == want and type(got) is type(want), t
    for t in (grid, grid[:44].reshape(4, 11), np.abs(grid), -np.abs(grid), np.array(0.0), np.float64(-0.5 * t_max)):
        want = outcome(old_taylor, T_array, t)
        for _ in range(2):
            assert outcome(T_array, t) == want


class TestOverflowThroughScalarPath:
    """A sum past double range raises through the scalar path with the array path's message."""

    def test_term_sum(self):
        F = PowerSeriesTransform((1e300, 1e300, 1e300), QParam(0.5))
        msg = "F\\^\\(0\\)\\(s\\) overflows double precision despite log-domain handling"
        for s in (1e-10, [1e-10], np.array([1e-10, 1.0])):
            with pytest.raises(QLaplaceError, match=msg):
                F.value(s)
        assert outcome(F.value, 1e-10) == outcome(F.value, [1e-10]) == outcome(old_term_sum, F, 0, 1e-10)
        assert outcome(F.derivative_value, 3, 1e-10) == outcome(old_term_sum, F, 3, [1e-10])

    def test_taylor(self):
        T = TaylorSeries((1e300, 1e300))
        for t in (1e10, -1e10):
            assert outcome(T, t) == outcome(T, [t]) == outcome(old_taylor, T, t)
            assert outcome(T, t)[0] is QLaplaceError

    @pytest.mark.parametrize("log_w", (np.array([709.8]), np.full(200, 705.0), np.array([0.0, math.nan, 1.0])),
                             ids=("one-term", "sum", "nan"))
    def test_evaluator(self, log_w):
        n = len(log_w)
        args = (log_w, np.ones(n), np.zeros(n))
        assert outcome(_log_term_sum, *args, 1.0, "probe") == outcome(_log_term_sum, *args, [1.0], "probe")
        assert outcome(_log_term_sum, *args, 1.0, "probe")[0] is QLaplaceError


def test_density_of_states_scalar_energy():
    q, model = QParam(0.6), IdealGasModel(3, 2)
    assert density_of_states(q, model, 5.0) == density_of_states(q, model, [5.0])


def test_high_orders_match_unprepared():
    F = catalog_transform(QParam(0.6), Sine(1.0), 40)
    for k in (0, 7, 500, 999):
        assert F.derivative_value(k, 1e4) == old_term_sum(F, k, 1e4)


def test_underflowed_sums_keep_the_sign_of_zero():
    # every term underflows at s = 1e300: the sum's zero takes its sign from the terms' signed zeros
    # (+0.0 for the alternating Sine series at every k), which a sign put on the sum would flip
    F = catalog_transform(QParam(0.6), Sine(1.0), 200)
    for k in (0, 1, 2, 3):
        for s in (1e300, [1e300, 2.0]):
            got, want = np.asarray(F.derivative_value(k, s)), np.asarray(old_term_sum(F, k, s))
            assert got.tobytes() == want.tobytes(), (k, s)
    G = PowerSeriesTransform((0.0, 0.0), QParam(0.6))
    assert math.copysign(1.0, G.derivative_value(1, 2.0)) == math.copysign(1.0, old_term_sum(G, 1, 2.0)) == 1.0


# --------------------------------------------------------------------------
# a series keeps nothing an evaluation changes


def test_evaluated_series_equal_fresh_ones():
    q = QParam(0.6)
    pairs = [(catalog_transform(q, Sine(1.0), 40), catalog_transform(q, Sine(1.0), 40))]
    pairs.append(tuple(series_invert(q, F) for F in pairs[0]))
    F, G = pairs[0]
    F.value(2.0), F.derivative_value(5, 2.0), q_post_widder(q, F, 0.5)
    S, T = pairs[1]
    S(0.4), S(np.array([-0.3, 0.2]))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)


def test_pickle_and_copy_round_trip():
    q = QParam(0.6)
    F = catalog_transform(q, Sine(1.0), 40)
    want = (F.value(2.0), F.derivative_value(4, 2.0), q_post_widder(q, F, 0.5))
    T = series_invert(q, F)
    T_want = T(np.array([-0.5, 0.0, 0.5]))
    for clone in (pickle.loads(pickle.dumps(F)), copy.copy(F), copy.deepcopy(F)):
        assert clone == F
        assert (clone.value(2.0), clone.derivative_value(4, 2.0), q_post_widder(q, clone, 0.5)) == want
        assert clone.s_min == F.s_min
    for clone in (pickle.loads(pickle.dumps(T)), copy.deepcopy(T)):
        assert clone == T and clone.t_max == T.t_max
        assert clone(np.array([-0.5, 0.0, 0.5])).tolist() == T_want.tolist()


def test_threads_share_one_instance():
    # 4 threads on 2 cores, switching every microsecond, over many derivative orders and schedules
    q = QParam(0.6)
    cfgs = (WidderConfig(), WidderConfig((16, 32, 64), fixed_m=2, extrapolate=False))
    calls = [("d", k, s) for k in range(0, 60, 3) for s in (2.0, 3.5)]
    calls += [("w", i, t) for i in (0, 1) for t in (0.3, 0.8)]

    def run(F, order):
        return [F.derivative_value(k, s) if kind == "d" else q_post_widder(q, F, s, cfgs[k])
                for kind, k, s in (calls[i] for i in order)]

    serial = run(catalog_transform(q, Sine(1.0), 200), range(len(calls)))
    shared = catalog_transform(q, Sine(1.0), 200)
    barrier, results = threading.Barrier(4, timeout=60), {}

    def worker(i):
        order = list(range(len(calls)))[::(1 if i % 2 else -1)]
        barrier.wait()
        for _ in range(5):
            results[i] = dict(zip(order, run(shared, order)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    for i in range(4):
        assert [results[i][j] for j in range(len(calls))] == serial
