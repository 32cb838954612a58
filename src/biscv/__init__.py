"""biscv: numerical certification of bi-s*-concavity for univariate
distribution functions, with Csorgo-Revesz constants, envelope bounds,
parameter-threshold searches, and Fisher-information inequalities."""

from .catalog import (
    Distribution,
    FDist,
    Normal,
    NormalMixture,
    Pareto,
    SphericalPower,
    StudentT,
    Support,
    TMixture,
    Uniform,
    parse_spec,
)
from .envelope import (
    emit_envelope_table,
    f_lower,
    f_upper,
    fl_prime,
    fprime_corridor,
    fu_prime,
    pointwise_band,
    write_envelope_csv,
)
from .errors import (
    BiscvError,
    BracketError,
    DomainError,
    EvaluationError,
    NonDifferentiableError,
    ParseError,
    PreconditionError,
    QuadratureError,
)
from .fisher import (
    FisherReport,
    check_fisher_chain,
    fisher_closed_form_spherical,
    fisher_info,
    hardy_integrals,
)
from .numerics import (
    BracketResult,
    QuadratureResult,
    bisect_boundary,
    integrate_adaptive,
    maximize_scalar,
)
from .shape import (
    Certificate,
    ConcavityIndex,
    CRReport,
    Grid,
    check_condition_iii,
    check_condition_iv,
    check_midpoint,
    cr,
    cr_min,
    cr_report,
    cr_right,
    delta_threshold,
    from_star,
    make_grid,
    max_s,
    to_index,
)

__version__ = "0.1.0"
