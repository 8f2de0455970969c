"""Seeded input generation and the independent oracles each op is checked against.

Everything here is plain data drawn from ``random.Random(seed)``: the
library only ever receives the generated numbers (family parameters, s/t/E
grids, model sizes).  Oracles are built from closed forms written out in
this file or from a family's own Taylor expansion, never from the route
being measured.
"""

from __future__ import annotations

import math
import random

# Bounds from the acceptance suite (tests/test_acceptance.py).
TIGHT = 1e-8         # criterion 1, power/exponential families
LOOSE = 1e-6         # criterion 1, remaining families
ROUNDTRIP = 1e-10    # criterion 3, coefficients n <= 20
WIDDER_POWER = 1e-12  # criterion 5, fixed-power estimator on single powers
DOS_FACTOR = 1e-10   # criterion 7, finite-k factor of g(E)
KERNEL_PAIR = 1e-8   # criterion 2
PARTITION = 1e-6     # criterion 9
IDENTITY = 1e-6      # criterion 8
LIMIT_II = 1e-5      # CLI tolerance of the limit-II row
# No acceptance bound exists for raw series sums; rounding-level agreement,
# scaled by the sum of absolute terms so cancellation is not penalised.
SUM_REL = 1e-10

FAMILIES = (
    "monomial", "exponential", "qexponential", "gaussian", "qgaussian",
    "cosine", "sine", "qcosine", "qsine", "cosh", "sinh", "qcosh", "qsinh",
)
TIGHT_FAMILIES = ("monomial", "exponential", "qexponential")
CLASSICAL_FAMILIES = ("monomial", "exponential", "gaussian", "cosine", "sine")
FORWARD_Q = (0.3, 0.6, 0.9)
S_POINTS = 8


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled:
    inputs whose cost depends on the value then cost about the same in
    total for every seed."""
    width = (hi - lo) / n
    out = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(out)
    return out


def draw_family(rng: random.Random, kind: str, *, decaying: bool = False) -> tuple:
    """A family spec ``(kind, m, alpha, qprime, sign)``, acceptance-suite sized."""
    if kind == "monomial":
        return (kind, rng.randint(1, 5), None, None, 1)
    alpha = _logu(rng, 0.5, 1.5)
    qprime = rng.uniform(0.5, 0.9) if kind.startswith("q") else None
    sign = 1
    if kind in ("exponential", "qexponential"):
        sign = -1 if decaying else rng.choice((-1, 1))
    return (kind, None, alpha, qprime, sign)


def build_family(spec: tuple):
    from qlaplace import catalog as C
    from qlaplace.qmath import QParam

    kind, m, alpha, qprime, sign = spec
    if kind == "monomial":
        return C.Monomial(m)
    if kind == "exponential":
        return C.Exponential(alpha, sign)
    if kind == "qexponential":
        return C.QExponential(QParam(qprime), alpha, sign)
    cls = C.CATALOG[kind]
    return cls(QParam(qprime), alpha) if qprime is not None else cls(alpha)


def q_poly(q: float, m: int) -> float:
    """prod_{j=1..m} (1 + (1-q) j): the q_poly(2-q, m) normalisation."""
    out = 1.0
    for j in range(1, m + 1):
        out *= 1.0 + (1.0 - q) * j
    return out


def monomial_transform(q: float, m: int, s: float) -> float:
    """L_q[t^(m-1)](s) = Gamma(m) / (q_poly(2-q, m) s^m)."""
    return math.gamma(m) / (q_poly(q, m) * s**m)


def classical_transform(spec: tuple, s: float) -> float:
    """Textbook q = 1 Laplace transforms of the classical families."""
    kind, m, alpha, _, sign = spec
    if kind == "monomial":
        return math.gamma(m) / s**m
    if kind == "exponential":
        assert sign == -1
        return 1.0 / (s + alpha)
    if kind == "gaussian":
        r = s / (2.0 * math.sqrt(alpha))
        # exp(r^2) erfc(r) written to avoid overflow for large r
        return 0.5 * math.sqrt(math.pi / alpha) * math.exp(r * r) * math.erfc(r)
    if kind == "cosine":
        return s / (s * s + alpha * alpha)
    if kind == "sine":
        return alpha / (s * s + alpha * alpha)
    raise ValueError(kind)


def forward_coeffs(q: float, taylor: list[float]) -> list[float]:
    """Term-wise forward map c_n = a_n n! / q_poly(2-q, n+1) of a Taylor series."""
    out = []
    log_qp = 0.0
    for n, a in enumerate(taylor):
        log_qp += math.log1p((1.0 - q) * (n + 1))
        if a == 0.0:
            out.append(0.0)
        else:
            out.append(math.copysign(math.exp(math.log(abs(a)) + math.lgamma(n + 1) - log_qp), a))
    return out


def series_sum(coeffs, s: float, k: int = 0) -> tuple[float, float]:
    """k-th s-derivative of sum c_n s^-(n+1): (value, sum of |terms|)."""
    terms = []
    log_s = math.log(s)
    for n, c in enumerate(coeffs):
        if c == 0.0:
            continue
        log_mag = (math.log(abs(c)) + math.lgamma(n + k + 1) - math.lgamma(n + 1)
                   - (n + k + 1) * log_s)
        terms.append(math.copysign(math.exp(log_mag), c) * (-1.0 if k % 2 else 1.0))
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


def per_term_widder(taylor, t: float, k: int) -> tuple[float, float]:
    """sum_n a_n t^n prod_{j<=n} (k+j)/k, with its absolute sum."""
    terms = []
    damp = 1.0
    for n, a in enumerate(taylor):
        if n:
            damp *= (k + n) / k
        terms.append(a * t**n * damp)
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


def fixed_widder(q: float, coeffs, t: float, k: int, m: int) -> tuple[float, float]:
    """(2-q) sum_n c_n C(n+k, n) s^-n at s = k xi_m / t, with its absolute sum."""
    xi = ((2.0 - q) / q_poly(q, m)) ** (1.0 / (m - 1))
    s = k * xi / t
    terms = [c * math.comb(n + k, n) * s**-n for n, c in enumerate(coeffs) if c != 0.0]
    return (2.0 - q) * math.fsum(terms), (2.0 - q) * math.fsum(abs(x) for x in terms)


def dos_factor(m: float, k: int) -> float:
    """Finite-k factor Gamma(m+k) / (Gamma(k+1) k^(m-1)) of the g(E) estimate."""
    return math.exp(math.lgamma(m + k) - math.lgamma(k + 1) - (m - 1.0) * math.log(k))


def dos_analytic(model: tuple, E: float) -> tuple[float, float]:
    """(g(E), m) for ("gas"|"osc", D, N) with unit constants."""
    kind, D, N = model
    dn = D * N
    if kind == "gas":
        m = dn / 2.0
        log_pref = dn / 2.0 * math.log(2.0 * math.pi) - math.lgamma(N + 1)
    else:
        m = float(dn)
        log_pref = 0.0
    return math.exp(log_pref - math.lgamma(m) + (m - 1.0) * math.log(E)), m


def gas_partition(q: float, D: int, N: int, beta: float) -> float:
    """Closed-form deformed ideal-gas Z_q(beta) with unit V, mass, h."""
    dn = D * N
    z = 1.0 / (1.0 - q)
    log_z = (dn / 2.0 * math.log(2.0 * math.pi) - math.lgamma(N + 1)
             + math.lgamma(z + 1.0) - dn / 2.0 * math.log(1.0 - q)
             - math.lgamma(z + dn / 2.0 + 1.0) - dn / 2.0 * math.log(beta))
    return math.exp(log_z)


def rel(a: float, b: float, scale: float = 0.0) -> float:
    d = max(abs(a), abs(b), scale)
    return abs(a - b) / d if d else 0.0


# --------------------------------------------------------------------------
# per-workload input specs (pure data)


def forward_grid_inputs(seed: int) -> list[tuple]:
    """(q, family spec, s values) for every q < 1 family and the q = 1 subset."""
    rng = random.Random(seed)
    out = []
    for q in FORWARD_Q:
        for kind in FAMILIES:
            out.append((q, draw_family(rng, kind), None))
    for kind in CLASSICAL_FAMILIES:
        spec = draw_family(rng, kind, decaying=True)
        s_lo = 0.4
        out.append((1.0, spec, tuple(_logu(rng, s_lo, 8.0 * s_lo) for _ in range(S_POINTS))))
    # s grids for q < 1 need s_min, which depends on the closed form: store
    # a unit-interval draw now and map it onto [s_lo, 8 s_lo] once s_min is known.
    return [(q, spec, s if s is not None else tuple(rng.random() for _ in range(S_POINTS)))
            for q, spec, s in out]


SERIES_Q_BANDS = ((0.05, 0.35), (0.35, 0.65), (0.65, 0.95))
SERIES_K = (1, 2, 4, 8, 16, 32, 64)
# The documented limit of the statmech models is D*N <= 200.  The seeded
# pipelines draw D*N up to DN_SEEDED; density_of_states raises or misses its
# bound for part of the range above about 150 today (NOTES.md, "Known
# defects"), so (DN_SEEDED, DN_MAX] is covered by a fixed grid of ops that is
# the same for every seed: the number of failing ops then does not depend on
# the seed.
DN_MAX = 200
DN_SEEDED = 140


def _split_dn(rng: random.Random, dn: int) -> tuple[int, int]:
    """(D, N) with D*N = dn and D in 1..3: the ideal gas depends on N itself."""
    d = rng.choice([d for d in (1, 2, 3) if dn % d == 0])
    return d, dn // d


def _energies(rng: random.Random) -> tuple[float, ...]:
    """Ten energies in units of the transform power m."""
    return tuple(sorted(rng.uniform(0.1, 2.0) for _ in range(10)))


def series_inputs(seed: int) -> list[dict]:
    """One pipeline per (q band draw, family): two q draws per band."""
    rng = random.Random(seed)
    n = 2 * len(SERIES_Q_BANDS) * len(FAMILIES)
    # the fixed-power Post-Widder path costs O(D*N), so D*N is stratified
    dn_evens = iter(_strata(rng, 2.0, DN_SEEDED / 2 + 1, n))
    dn_odds = iter(_strata(rng, 2.0, DN_SEEDED / 2, n))
    dn_oscs = iter(_strata(rng, 2.0, DN_SEEDED + 1, n))
    out = []
    for lo, hi in SERIES_Q_BANDS:
        for _ in range(2):
            for kind in FAMILIES:
                q = rng.uniform(lo, hi)
                spec = draw_family(rng, kind)
                dn_even = 2 * int(next(dn_evens))
                dn_odd = 2 * int(next(dn_odds)) + 1
                dn_osc = int(next(dn_oscs))
                out.append({
                    "q": q,
                    "spec": spec,
                    "s_unit": tuple(rng.random() for _ in range(16)),
                    "t": tuple(rng.uniform(0.2, 1.0) for _ in range(2)),
                    "E_per_m": _energies(rng),
                    # gas with D*N even (integer power), gas with D*N odd
                    # (half-integer power), oscillator (integer power)
                    "models": (("gas", *_split_dn(rng, dn_even)), ("gas", *_split_dn(rng, dn_odd)),
                               ("osc", *_split_dn(rng, dn_osc))),
                })
    return out


# The two grids below sit where the library fails today and do not depend on
# the seed, so that every seed has the same failing ops.
EDGE_SEED = 0
INVERT200_Q = (0.3, 0.6, 0.9)
DOS_EDGE_DN = (150, 160, 170, 180, 190, 200)
DOS_EDGE_Q = (0.2, 0.5, 0.8)


def invert200_inputs() -> list[tuple[float, tuple]]:
    """(q, family spec) for series_invert of a 200-term series: every family
    at each q of INVERT200_Q."""
    rng = random.Random(EDGE_SEED)
    return [(q, draw_family(rng, kind)) for q in INVERT200_Q for kind in FAMILIES]


def dos_edge_inputs() -> list[tuple[float, tuple, tuple[float, ...]]]:
    """(q, model, energies per m) for density_of_states on D*N in
    (DN_SEEDED, DN_MAX]: a gas with D*N even, a gas with D*N odd and an
    oscillator at each D*N of DOS_EDGE_DN, q cycling through DOS_EDGE_Q."""
    rng = random.Random(EDGE_SEED)
    out = []
    for i, dn in enumerate(DOS_EDGE_DN):
        for j, model in enumerate((("gas", *_split_dn(rng, dn)), ("gas", *_split_dn(rng, dn - 1)),
                                   ("osc", *_split_dn(rng, dn)))):
            out.append((DOS_EDGE_Q[(i + j) % len(DOS_EDGE_Q)], model, _energies(rng)))
    return out


NESTED_Q = (0.6, 0.9, 1.0)
KERNEL_PAIR_Q = (0.3, 0.45, 0.6, 0.75, 0.9)
KERNEL_PAIR_S = ((1.0, 0.5), (2.0, 1.0), (5.0, 0.2), (1.3, 1.1))


def nested_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    checks = []
    for q in NESTED_Q:
        checks.append({
            "q": q,
            "cos_alpha": _logu(rng, 0.5, 1.5),
            "s": _logu(rng, 0.7, 1.5),
            "scale_a": _logu(rng, 0.5, 2.0),
            "gauss_alpha": _logu(rng, 0.5, 1.5),
            "lin": (rng.uniform(0.5, 2.0), -rng.uniform(0.25, 1.0)),
        })
    conv = (_logu(rng, 0.5, 1.5), _logu(rng, 0.5, 1.5), _logu(rng, 0.7, 1.5))
    # The 20 triples of acceptance criterion 2, jittered by up to 5 %.
    pairs = []
    for q in KERNEL_PAIR_Q:
        for s, sp in KERNEL_PAIR_S:
            s2 = s * rng.uniform(0.95, 1.05)
            pairs.append((q, s2, sp * rng.uniform(0.95, 1.0) * min(1.0, s2 / s)))
    # The two (q, beta) points of acceptance criterion 9 (D*N = 2), jittered:
    # the cost swings by 1.6x with (q, beta) in no simple pattern, and these
    # two ops take most of the round's time.
    partitions = tuple(
        (q + rng.uniform(-0.02, 0.02), beta * _logu(rng, 0.9, 1.1), dn)
        for q, beta, dn in ((0.5, 1.0, (1, 2)), (0.8, 1.7, (2, 1)))
    )
    return {"checks": checks, "conv": conv, "pairs": pairs, "partitions": partitions}
