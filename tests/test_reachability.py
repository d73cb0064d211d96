"""Every function defined in the package runs when the command line and the
check suite run. A def that neither reaches is dead code: it is deleted, or
ALLOWED names it with the reason no run here can reach it.

The workload runs in this process under sys.setprofile, which sees the code
object of every Python-level call. The suite is held on its serial loop,
since the checks of a forked worker run where the profiler cannot see them,
and every memo of the package is cleared first, so that a value an earlier
test cached cannot stand in for the call that computes it."""

import ast
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import truncbell
from truncbell import cli
from truncbell.sequences import FAMILIES
from truncbell.verify import CHECKS

PACKAGE = Path(truncbell.__file__).resolve().parent

# module.qualname -> why no run of the command line or the suite calls it
ALLOWED = {
    "cli.entrypoint": "the console script runs it in a fresh process",
    "fps.Fps.coeffs": "perfbench/tracer.py's ring_of reads it",
    "fps.Poly.__repr__": "pytest assertion messages show it",
}

# one value for each family parameter, as table and eval take it
FAMILY_FLAGS = {"lam": "--lambda=1/2", "p": "--p=2", "r": "--r=1"}


def _defs(node, prefix=""):
    """(first line, qualified name) of every def under node. A decorated
    def's code object starts at its first decorator, so that line is used."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
            yield from _defs(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def package_defs() -> dict:
    """(file path, first line) -> module.qualname for every def in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, name in _defs(tree):
            out[str(path), line] = f"{path.stem}.{name}"
    return out


def clear_memos() -> None:
    for info in pkgutil.iter_modules(truncbell.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"truncbell.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli(*argv) -> None:
    assert cli.main(list(argv)) == 0, argv


def workload() -> None:
    # through the package's lazy names, so its __getattr__ runs too
    truncbell.run_suite(truncbell.default_grid())
    for family, spec in FAMILIES.items():
        params = [FAMILY_FLAGS[name] for name in spec.params]
        for fmt in ("csv", "json"):
            run_cli("table", f"--family={family.value}", *params, "--n-max=5",
                    f"--format={fmt}")
        point = (["--k=2"] if spec.triangular else []) + (["--x=1/3"] if spec.poly_valued else [])
        run_cli("eval", f"--family={family.value}", *params, "--n=5", *point)
    for spec in CHECKS:
        p = [] if spec.p_min is None else ["--p=2"]
        for check_id in spec.ids:
            run_cli("check", f"--id={check_id}", "--lambda=1/2", *p, "--n-max=6",
                    "--order=10")
    run_cli("suite", "--lambdas=0,1/2", "--ps=0,1", "--n-max=4", "--order=6",
            "--mc-samples=5000")


def reached(run) -> set:
    """(file path, first line) of every code object that run calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_def_runs_from_the_cli_or_the_suite(monkeypatch, capsys):
    defs = package_defs()
    assert set(ALLOWED) <= set(defs.values()), "an allowlisted name is no longer defined"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    clear_memos()
    seen = reached(workload)
    capsys.readouterr()
    unreached = [f"truncbell/{Path(path).name}:{line} {name}"
                 for (path, line), name in sorted(defs.items())
                 if (path, line) not in seen and name not in ALLOWED]
    assert not unreached, "never run by the CLI or the suite:\n" + "\n".join(unreached)
