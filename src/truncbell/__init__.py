"""Exact computation and mechanical verification of degenerate and
truncated Bell-type sequence families.

The package has four layers: exact scalar arithmetic (exactnum),
truncated formal power series and polynomials over the rationals (fps),
the sequence families themselves with dual constructions (sequences),
and the identity-verification engine plus suite runner (verify). The
command line lives in cli.
"""

from .exactnum import (
    Lambda,
    Rational,
    beta_exact,
    binomial,
    deg_falling_factorial,
    falling_factorial,
    format_rational,
    parse_rational,
)
from .fps import Fps, Poly, apply_Dlambda, deg_exp, deg_log, lift_to_poly_ring
from .sequences import (
    CONSTRUCTION,
    Family,
    SequenceTable,
    bell_classical,
    bell_deg,
    bell_deg_egf,
    bell_poly_classical,
    build_table,
    deg_bernoulli,
    deg_bernoulli_num,
    deg_falling_factorial_poly,
    falling_factorial_poly,
    stirling1,
    stirling1_deg,
    stirling1_deg_egf,
    stirling2,
    stirling2_deg,
    stirling2_deg_egf,
    stirling2_deg_poly,
    stirling2_deg_poly_egf,
    trunc_bell_deg,
    trunc_bell_deg_egf,
    trunc_mod_bell_deg,
    trunc_mod_bell_deg_egf,
)
from .verify import (
    ADJUDICATION_IDS,
    KNOWN_CHECK_IDS,
    NumericConfig,
    SuiteGrid,
    SuiteReport,
    Verdict,
    default_grid,
    exit_code_for,
    report_to_json_text,
    run_check,
    run_suite,
    verdicts_to_json_text,
)

__version__ = "0.1.0"
