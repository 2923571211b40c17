"""Entropy-modulated density transforms on quadrature grids.

Three transforms act on a probability density f with distribution function F:

* type1 attenuates mass where the Bernoulli entropy of F is high,
* type2 amplifies it there instead,
* type3 modulates by the phase factor 2 sin^2(pi F).

Each produces a new density after renormalization, so the transforms can be
iterated. The package provides the grid/quadrature layer, the transforms and
their iteration traces, characteristic function tooling, the sup distance of
each iterate's standardized CF from exp(-t^2/2), and a registry of checks
against closed forms and governing equations. The `dlab` console script
exposes all of it as deterministic file outputs.
"""

from .distributions import (
    FAMILIES,
    DistributionSpec,
    cdf,
    effective_support,
    has_singular_endpoint,
    median,
    pdf,
)
from .grid import (
    GridDensity,
    csv_rows,
    cumulative_simpson,
    from_analytic,
    integrate,
    mean_and_variance,
    median_of,
    moment,
    simpson,
)
from .spectral import (
    CharFunction,
    ConvergenceDiagnostics,
    cf_of_values,
    char_function,
    gaussian_convergence,
    modulated_char,
    rescaled_sup_distance,
    t_operator,
    uniform_closed_form_cf,
)
from .transforms import (
    TYPE1_CONSTANT,
    TYPE2_CONSTANT,
    IterationTrace,
    StepDiagnostics,
    TransformKind,
    TransformStep,
    bernoulli_entropy,
    iterate,
    kernel,
    log_derivative_grid,
    steps,
    transform,
    transform_step,
    transform_values,
)

__version__ = "0.1.0"
