"""Spans around calls into the package's public functions, recorded from
outside the program.

``Tracer.install`` wraps each function of ``LAYERS`` in every package
module that binds it: the modules import each other's names with
``from .x import y``, so ``kreindirac.herglotz.build_M``,
``kreindirac.dirac.build_M`` and ``kreindirac.cli.build_M`` are separate
bindings of one function and each needs the wrapper.  ``uninstall`` puts
the originals back.

A span records its name, start, end, parent span and job id.  Spans stay
in memory until ``write_spans``.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
import types

# defining module -> functions wrapped, named "<module>.<function>"
LAYERS = {
    "cli": ("load_config", "run"),
    "finitegap": ("build_M", "reflectionless_defect", "gap_realness", "weyl_from_M"),
    "herglotz": ("herglotz_defect", "krein_xi", "asymptotic_W"),
    "mat2": ("mexp", "mlog_spectral"),
    "numerics": ("extrapolate_schedule",),
    "dirac": ("sample_potential", "ode_weyl"),
}
PACKAGE = "kreindirac"
ROOT_SPAN = "cli.main"


def module(name: str) -> types.ModuleType:
    """The module ``kreindirac.<name>`` (or the package for ``""``).

    ``import kreindirac.mat2 as m`` binds the attribute ``mat2`` of the
    package, which the package sets to the function ``mat2.mat2``; only
    ``importlib.import_module`` is sure to return the module itself.
    """
    full = f"{PACKAGE}.{name}" if name else PACKAGE
    mod = importlib.import_module(full)
    if not isinstance(mod, types.ModuleType) or mod.__name__ != full:
        raise RuntimeError(f"{full} did not resolve to its module")
    return mod


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, job, self_s)
        self.stack: list[list] = []   # open spans: [id, child_s]
        self.job = -1
        self._next_id = 0
        self.counts = {"gap_terms": 0, "no_convergence": 0, "xi_distinct": 0}
        self.x_marched = 0.0
        self._xi_keys: set = set()
        self._xi_refs: list = []      # keeps ids in _xi_keys from being reused
        self._patches: list = []
        self._no_convergence = module("errors").NoConvergence

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self.stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.spans.append((sid, name, t0, t1, parent, self.job, dur - frame[1]))
            if hook is not None:
                hook(args, kwargs, result, exc)

    def begin_job(self, job_id: int) -> None:
        self.job = job_id

    def end_job(self) -> None:
        self.counts["xi_distinct"] += len(self._xi_keys)
        self._xi_keys.clear()
        self._xi_refs.clear()
        self.job = -1

    # -- hooks for the per-layer counters ---------------------------------

    def _on_build_M(self, args, kwargs, result, exc):
        self.counts["gap_terms"] += _arg(args, kwargs, 0, "profile").gapset.n

    def _on_krein_xi(self, args, kwargs, result, exc):
        mfun = _arg(args, kwargs, 0, "mfun")
        self._xi_refs.append(mfun)
        self._xi_keys.add((id(mfun), float(_arg(args, kwargs, 1, "t"))))
        if isinstance(exc, self._no_convergence):
            self.counts["no_convergence"] += 1

    def _on_sample_potential(self, args, kwargs, result, exc):
        xg = _arg(args, kwargs, 1, "xgrid")
        samples = result if exc is None else getattr(exc, "samples", None)
        if samples:
            self.x_marched += samples[-1].x - float(xg[0])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {"finitegap.build_M": self._on_build_M,
                 "herglotz.krein_xi": self._on_krein_xi,
                 "dirac.sample_potential": self._on_sample_potential}
        mods = [module("")] + [module(m) for m in LAYERS]
        for modname, names in LAYERS.items():
            for fname in names:
                orig = getattr(module(modname), fname)
                wrapper = self._wrapper(f"{modname}.{fname}", orig,
                                        hooks.get(f"{modname}.{fname}"))
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig, f"{modname}.{fname}"))

    def _wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for mod, attr, orig, _ in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def bindings(self) -> dict[str, int]:
        """Number of module bindings wrapped, per function."""
        out: dict[str, int] = {}
        for _, _, _, name in self._patches:
            out[name] = out.get(name, 0) + 1
        return out

    # -- summaries --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: calls, inclusive seconds and self seconds (no
        wrapped function calls itself, so inclusive times do not overlap)."""
        total: dict[str, list] = {}
        for _, name, t0, t1, _, _, self_s in self.spans:
            row = total.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, t0, t1, parent, job, _ in sorted(self.spans):
                fh.write(f"{sid},{name},{t0!r},{t1!r},{parent},{job}\n")


def selfcheck(tr: Tracer) -> list[str]:
    """Problems with the installed wrappers; empty when every package
    module that bound a wrapped function now binds its wrapper."""
    problems = []
    # the package re-exports the function mat2.mat2 under the module's name
    if not hasattr(module("mat2"), "mexp"):
        problems.append("kreindirac.mat2 did not resolve to the module")
    for modname, names in LAYERS.items():
        for fname in names:
            if not hasattr(getattr(module(modname), fname), "__wrapped__"):
                problems.append(f"{modname}.{fname} is not wrapped in its own module")
    for mod, attr, orig, name in tr._patches:
        if getattr(mod, attr) is orig:
            problems.append(f"{mod.__name__}.{attr} still binds the original {name}")
    return problems
