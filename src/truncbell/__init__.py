"""Exact computation and mechanical verification of degenerate and
truncated Bell-type sequence families.

The package has five layers: exact scalar arithmetic (exactnum),
truncated formal power series and polynomials over the rationals (fps),
the sequence families themselves (sequences), the double-precision
quadrature, series and lattice-moment kernels (numeric), and the
identity-verification engine plus suite runner (verify). The command line
lives in cli.

Importing the package loads the three exact layers only, and no numpy.
The attribute verify and the names the package re-exports from it
(run_suite, NumericConfig, KNOWN_CHECK_IDS, ...) are resolved on first
use, which imports the engine and with it numeric and numpy.
"""

import importlib

from .exactnum import (
    beta_exact,
    deg_falling_factorial,
    format_rational,
    parse_rational,
)
from .fps import Fps, Poly, apply_Dlambda, deg_exp, times_deg_exp_x
from .sequences import (
    CONSTRUCTION,
    Family,
    SequenceTable,
    bell_classical,
    bell_deg,
    build_table,
    deg_bernoulli,
    deg_bernoulli_num,
    deg_falling_factorial_poly,
    stirling1,
    stirling1_deg,
    stirling2,
    stirling2_deg,
    stirling2_deg_poly,
    stirling2_deg_poly_egf,
    trunc_bell_deg,
    trunc_bell_deg_egf,
    trunc_mod_bell_deg,
    trunc_mod_bell_deg_egf,
)

_VERIFY_EXPORTS = frozenset({
    "ADJUDICATION_IDS",
    "KNOWN_CHECK_IDS",
    "NumericConfig",
    "SuiteGrid",
    "SuiteReport",
    "Verdict",
    "default_grid",
    "exit_code_for",
    "report_to_json_text",
    "run_check",
    "run_suite",
    "verdicts_to_json_text",
})

__version__ = "0.1.0"


def __getattr__(name):
    # verify imports numpy, which would more than double the start-up time
    # of table and eval; it loads on first use of the module or its names
    if name == "verify" or name in _VERIFY_EXPORTS:
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
