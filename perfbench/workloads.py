"""Seeded inputs for the benchmark workloads.

Nothing here imports the library: the inputs are plain data that the
benchmark hands to worker processes or turns into command lines. The same
seed always yields the same inputs, and the draws are stratified (a fixed
number per family slot) so the amount of work per run barely depends on
the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("suite_default", "suite_deep", "cli_lookup", "table_sweep")

# run_suite grids: the default grid, and a deeper one where series orders reach 38
# and the numeric contour checks run out of precision
SUITE_GRIDS = {"suite_default": {}, "suite_deep": {"n_max": 20, "order": 34}}
# the library's default grid, used to derive the verdict count a report must hold
DEFAULT_LAMBDAS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3))
DEFAULT_PS = (0, 1, 2, 3, 4)
ADJUDICATION_IDS = ("T6", "T6k")

TRIANGULAR = ("S1", "S2", "S1deg", "S2deg", "S2degPoly")
POLY_VALUED = ("S2degPoly", "BernoulliDeg", "BellDeg", "TruncBellDeg", "TruncModBellDeg")
PLAIN = ("S1", "S2", "BellClassical")  # families without parameters
FAMILIES = ("S1", "S2", "S1deg", "S2deg", "S2degPoly", "BernoulliDeg", "BellDeg",
            "TruncBellDeg", "TruncModBellDeg", "BellClassical")

# lambda (and x) values a/b with |a| <= 7 and b <= 7
LAMBDA_POOL = tuple(sorted({Fraction(a, b) for b in range(1, 8) for a in range(-7, 8)}))

SWEEP_N_MAX = 12
SWEEP_LAMBDAS_PER_SLOT = 16
CLI_MAX_N = 16
CLI_OPS = 400  # more than one run can use; a run takes them in order


def expected_verdicts(lambdas=DEFAULT_LAMBDAS, ps=DEFAULT_PS) -> tuple[int, int]:
    """(total, counted) verdicts that run_suite returns on this grid.

    Per lambda: T2 and T13, plus L9 and C10 inside the contour domain
    |lambda| < 1. Per p: T1, P3, T4, T6 (two variants), T12 and the
    T14/T15/T16 triple; for p >= 1 also P5a, P5b, T7, T8, S3 (exact and
    Monte Carlo), C-SIX and, inside the contour domain, T11.
    """
    total = 0
    for lam in lambdas:
        trig = abs(lam) < 1
        total += 2 + 2 * trig
        for p in ps:
            total += 9
            if p >= 1:
                total += 7 + trig
    return total, total - 2 * len(lambdas) * len(ps)


def _slots():
    """(family, p, r) parameter slots that take a lambda."""
    out = [("S1deg", None, None), ("S2deg", None, None), ("S2degPoly", None, None),
           ("BellDeg", None, None)]
    out += [(f, p, None) for f in ("TruncBellDeg", "TruncModBellDeg") for p in range(5)]
    out += [("BernoulliDeg", None, r) for r in range(4)]
    return out


def table_sweep_inputs(seed: int) -> list[tuple]:
    """Distinct (family, lambda, p, r) keys for build_table at SWEEP_N_MAX:
    the parameterless families once, then SWEEP_LAMBDAS_PER_SLOT distinct
    lambdas drawn for every parameter slot. Lambdas are strings "a/b"."""
    rng = random.Random(f"table_sweep:{seed}")
    keys = [(f, None, None, None) for f in PLAIN]
    for family, p, r in _slots():
        for lam in rng.sample(LAMBDA_POOL, SWEEP_LAMBDAS_PER_SLOT):
            keys.append((family, str(lam), p, r))
    rng.shuffle(keys)
    return keys


def cli_lookup_inputs(seed: int, count: int = CLI_OPS) -> list[dict]:
    """CLI queries: families in a fixed rotation, everything else drawn.

    Each op is a dict with cmd ('table' or 'eval'), family, lam, p, r, n
    (n_max for tables), k (triangular eval), x (polynomial eval, or None)
    and fmt (table output format)."""
    rng = random.Random(f"cli_lookup:{seed}")
    ops = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        op = {"cmd": rng.choice(("table", "eval")), "family": family,
              "lam": None, "p": None, "r": None, "k": None, "x": None, "fmt": None,
              "n": rng.randint(0, CLI_MAX_N)}
        if family not in PLAIN:
            op["lam"] = str(rng.choice(LAMBDA_POOL))
        if family in ("TruncBellDeg", "TruncModBellDeg"):
            op["p"] = rng.randint(0, 4)
        if family == "BernoulliDeg":
            op["r"] = rng.randint(0, 3)
        if op["cmd"] == "table":
            op["fmt"] = rng.choice(("csv", "json"))
        else:
            if family in TRIANGULAR:
                op["k"] = rng.randint(0, op["n"])
            if family in POLY_VALUED and rng.random() < 0.5:
                op["x"] = str(rng.choice(LAMBDA_POOL))
        ops.append(op)
    return ops


def cli_argv(op: dict) -> list[str]:
    """Command-line arguments (after `python -m truncbell`) for one op."""
    # "--flag=value" keeps argparse from reading a negative value as a flag
    argv = [op["cmd"], f"--family={op['family']}"]
    if op["lam"] is not None:
        argv.append(f"--lambda={op['lam']}")
    for flag in ("p", "r", "k", "x"):
        if op[flag] is not None:
            argv.append(f"--{flag}={op[flag]}")
    if op["cmd"] == "table":
        return argv + [f"--n-max={op['n']}", f"--format={op['fmt']}"]
    return argv + [f"--n={op['n']}"]
