"""Deformed Laplace transform toolkit.

Forward transforms with the q-exponential kernel, closed-form transform
catalog as the term-wise image of Taylor series, real-variable Post-Widder
inversion, and partition-function / density-of-states applications.
"""

from .errors import ConvergenceError, DomainError, QLaplaceError, QuadratureError
from .qmath import QParam, q_exp, q_log, q_poly, q_product_arg, xi_factor
from .hypergeom import PFQParams, SeriesControl, pfq, pfq_term_coefficients
from .quadrature import QuadratureConfig, integrate, integrate_half_line
from .catalog import (
    CATALOG,
    CatalogFunction,
    Cosh,
    Cosine,
    Exponential,
    Gaussian,
    Monomial,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QSine,
    QSinh,
    Sine,
    Sinh,
    make_catalog_function,
)
from .transform import (
    CheckReport,
    LimitIdentityReport,
    PowerSeriesTransform,
    RatioScanReport,
    TranslationReport,
    catalog_transform,
    convolution_check_classical,
    derivative_rule_check,
    forward_numeric,
    integral_rule_diagnostic,
    kernel_pair_integral,
    limit_identity_check,
    linearity_check,
    qderivative_of_transform_check,
    qintegral_of_transform_check,
    scaling_check,
    shift_kernel_factor,
    translation_check,
)
from .inverse import (
    RoundtripReport,
    TaylorSeries,
    WidderConfig,
    WidderEstimate,
    classical_post_widder,
    q_post_widder,
    roundtrip,
    series_invert,
    widder_weight,
)
from .statmech import (
    DensityOfStates,
    IdealGasModel,
    OscillatorModel,
    density_of_states,
    ideal_gas_partition,
    ideal_gas_partition_quadrature,
    oscillator_partition,
)

__version__ = "0.1.0"
