"""Spans around calls into the library's layers, and their self times.

A span is (name, start, end, parent). The tracer keeps spans in memory, in
start order, in flat arrays (a traced deep suite records about a million),
and writes them out once the traced pass ends. Wrappers are installed from
outside the library: every module of the package that binds a wrapped
function gets the wrapper (verify and sequences import binomial, deg_exp
and others by name, so patching the defining module alone would miss
those calls), and Fps/Poly methods are patched on the class, under every
alias such as __rmul__ = __mul__.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

EXACTNUM_FNS = ("binomial", "beta_exact", "deg_falling_factorial", "falling_factorial")
# public routes of the sequences layer: basis route, _egf series route,
# deg_bernoulli*, and the table builder
SEQUENCES_FNS = (
    "stirling1", "stirling2", "stirling1_deg", "stirling2_deg", "stirling2_deg_poly",
    "bell_classical", "bell_poly_classical", "bell_deg", "trunc_bell_deg",
    "trunc_mod_bell_deg", "deg_bernoulli", "deg_bernoulli_num", "stirling1_deg_egf",
    "stirling2_deg_egf", "stirling2_deg_poly_egf", "bell_deg_egf", "trunc_bell_deg_egf",
    "trunc_mod_bell_deg_egf", "build_table",
)
VERIFY_FNS = (
    "check_T1", "check_T2", "check_P3", "check_P5a", "check_P5b", "check_T6", "check_T7",
    "check_T8", "check_T4", "check_trig", "check_T12", "check_T13", "check_T14_T15_T16",
    "check_S3", "check_CSIX",
)
FPS_OPS = ("mul", "div", "exp", "deg_exp")
RINGS = ("fraction", "poly")


class Tracer:
    """In-memory span recorder with wrappers that open one span per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, products=None):
        """Wrap fn so each call records a span. name is a string or a
        function of the call's arguments; products(args, result), if given,
        adds to the counter '<span name>.coeff_products'."""
        begin, finish, counters = self.begin, self.finish, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            i = begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if products is not None and result is not NotImplemented:
                counters[span_name + ".coeff_products"] += products(args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        names = self.names
        return summarize([names[n] for n in self.name], self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Gzipped JSON lines: a header with the names, then one
        [name index, start, end, parent] line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent"]}) + "\n")
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(f"[{n},{s!r},{e!r},{p}]\n")


def self_times(starts, ends, parents) -> array:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. Spans are given as columns, in start order,
    parent an index into them or -1; children may overlap each other or
    stick out of the parent, and are clipped and merged."""
    covered = array("d", bytes(8 * len(starts)))
    reach = array("d", [float("-inf")]) * len(starts)
    for start, end, parent in zip(starts, ends, parents):
        if parent < 0:
            continue
        p_start, p_end = starts[parent], ends[parent]
        lo, hi = max(start, p_start, reach[parent]), min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return array("d", (end - start - cov for start, end, cov in zip(starts, ends, covered)))


def summarize(names, starts, ends, parents) -> dict[str, dict]:
    """Per span name: calls, total duration and total self time."""
    out: dict[str, dict] = {}
    for name, start, end, own in zip(names, starts, ends, self_times(starts, ends, parents)):
        slot = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        slot["calls"] += 1
        slot["s"] += end - start
        slot["self_s"] += own
    return out


def _rebind(owners, original, wrapper) -> None:
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)


def _triangle(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, package: str = "truncbell") -> None:
    """Wrap the layer functions of an imported package at every binding.
    A function the package does not have is skipped, so its metrics read 0."""
    modules = _package_modules(package)
    mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def wrap_functions(module_name, fns, prefix):
        module = mod.get(module_name)
        for fn_name in fns:
            original = getattr(module, fn_name, None)
            if callable(original):
                _rebind(modules, original, tracer.wrap(original, f"{prefix}.{fn_name}"))

    wrap_functions("exactnum", EXACTNUM_FNS, "exactnum")
    wrap_functions("sequences", SEQUENCES_FNS, "sequences")
    wrap_functions("verify", VERIFY_FNS, "verify")
    verify = mod.get("verify")
    for fn_name, span in (("run_suite", "run_suite"), ("report_to_json_text", "run_suite.report_json")):
        original = getattr(verify, fn_name, None)
        if callable(original):
            _rebind(modules, original, tracer.wrap(original, span))

    fps = mod.get("fps")
    Fps, Poly = getattr(fps, "Fps", None), getattr(fps, "Poly", None)
    if Fps is None or Poly is None:
        return

    def ring_of(op):
        return lambda args: f"fps.{op}.{'poly' if isinstance(args[0].coeffs[0], Poly) else 'fraction'}"

    # coefficient products of the schoolbook algorithms, computed from the
    # operand and result orders rather than counted inside the kernels
    def mul_products(args, result):
        return _triangle(result.order) if isinstance(args[1], Fps) else result.order + 1

    methods = (
        ("__mul__", ring_of("mul"), mul_products),
        ("__truediv__", ring_of("div"), lambda args, result: _triangle(result.order)),
        ("exp", ring_of("exp"), lambda args, result: result.order * (result.order + 1) // 2),
    )
    for attr, namer, products in methods:
        original = vars(Fps).get(attr)
        if original is not None:
            _rebind([Fps], original, tracer.wrap(original, namer, products))
    deg_exp = getattr(fps, "deg_exp", None)
    if deg_exp is not None:
        namer = lambda args: f"fps.deg_exp.{'poly' if isinstance(args[0], Poly) else 'fraction'}"
        _rebind(modules, deg_exp, tracer.wrap(deg_exp, namer, lambda args, result: result.order))
    for attr, span in (("__mul__", "poly.mul"), ("__add__", "poly.add")):
        original = vars(Poly).get(attr)
        if original is not None:
            _rebind([Poly], original, tracer.wrap(original, span))


def memo_stats(package: str = "truncbell") -> dict | None:
    """Summed cache_info() of every lru_cache-style memo bound in the
    package's modules, or None when there is none."""
    memos = {id(v): v for m in _package_modules(package) for v in vars(m).values()
             if callable(getattr(v, "cache_info", None))}
    if not memos:
        return None
    infos = [v.cache_info() for v in memos.values()]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos),
            "entries": sum(i.currsize for i in infos)}
