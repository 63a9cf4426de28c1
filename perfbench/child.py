"""Child-process shim: runs one `dissipeuler` CLI command, optionally traced.

    python3 perfbench/child.py --report R.json [--trace] -- vanish --config C --out D

The shim calls ``dissipeuler.cli.main`` with the given arguments, exactly as
the ``dissipeuler`` console script does, and exits with its status.  It
writes ``R.json`` at exit with the monotonic time at which config
validation finished (``setup_end``) and, with ``--trace``, one span per
wrapped call.

Tracing replaces each target below at every name a caller looks it up by
(for example both ``dissipeuler.spectral._convective_with_sup`` and
``dissipeuler.solver._convective_with_sup``), and the FFT entry points of
``numpy.fft`` and ``scipy.fft`` before the package is imported, so a module
that binds a transform by name at import time is traced as well.  Spans
stay in memory until exit.  The current span travels in a context variable
that thread-pool submissions copy, so a job's spans name the span that
submitted it as their parent.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _steps(args, kwargs, result):
    """run_path: steps integrated and the grid they ran on."""
    grid = result.config.grid
    return {"steps": len(result.trace.times) - 1, "n": grid.n, "dof": grid.dof}


def _bins(args, kwargs, result):
    """Young-measure builds: histogram bins allocated and occupied."""
    alloc = result.nu_mass.size + result.inf_mass.size
    occ = int((result.nu_mass > 0).sum() + (result.inf_mass > 0).sum())
    return {"alloc": alloc, "occ": occ}


def _fft_bytes(args, kwargs, result):
    """Bytes in plus bytes out of one transform, computed from array sizes."""
    src = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return getattr(src, "nbytes", 0) + getattr(result, "nbytes", 0)


# (module, attribute or Class.attribute, span name, extra-data function)
TARGETS = (
    ("dissipeuler.spectral", "_convective_with_sup", "spectral.convective", None),
    ("dissipeuler.spectral", "leray_project", "spectral.leray", None),
    ("dissipeuler.spectral", "SpectralField.to_physical", "spectral.to_physical", None),
    ("dissipeuler.solver", "run_path", "solver.run_path", _steps),
    ("dissipeuler.forcing", "WienerPath.sample", "forcing.sample", None),
    ("dissipeuler.forcing", "WienerPath.refine", "forcing.refine", None),
    ("dissipeuler.forcing", "WienerPath.refined", "forcing.refine", None),
    ("dissipeuler.young", "dirac_embed", "young.embed", _bins),
    ("dissipeuler.young", "estimate_from_family", "young.family", _bins),
    ("dissipeuler.young", "pairing", "young.pairing", None),
    ("dissipeuler.young", "weakstar_distance", "young.weakstar", None),
    ("dissipeuler.limits", "run_ladder", "limits.run_ladder", None),
    ("dissipeuler.limits", "solver_functionals_multi", "limits.functionals", None),
    ("dissipeuler.limits", "linear_model_functionals_multi", "limits.functionals", None),
    ("dissipeuler.limits", "martingale_test", "limits.martingale_test", None),
    ("dissipeuler.limits", "momentum_residual", "limits.momentum", None),
    ("dissipeuler.limits", "energy_inequality_limit", "limits.energy_limit", None),
    ("dissipeuler.weakstrong", "build_reference", "weakstrong.build_reference", None),
    ("dissipeuler.weakstrong", "relative_energy", "weakstrong.relative_energy", None),
    ("dissipeuler.weakstrong", "gronwall_audit", "weakstrong.gronwall", None),
    ("dissipeuler.manifest", "RunDirectory.write_json", "manifest.write_json", None),
    ("dissipeuler.manifest", "RunDirectory.finalize", "manifest.finalize", None),
    ("dissipeuler.config", "load_config", "config.load", None),
)


class Tracer:
    """In-memory span recorder: (id, parent, name, thread, start, end, extra)."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)

    def wrap(self, name, fn, extra=None):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                current.reset(token)
                data = extra(args, kwargs, result) if extra and result is not None else None
                spans.append((sid, parent, name, threading.get_ident(), start, end, data))
        return wrapper

    def install_fft(self):
        import numpy.fft
        import scipy.fft
        for mod in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    setattr(mod, fname, self.wrap("fft", fn, _fft_bytes))

    def install_threads(self):
        # a job runs in a copy of the submitting thread's context, so its
        # spans record the submitting span as parent
        submit = concurrent.futures.ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)
        concurrent.futures.ThreadPoolExecutor.submit = traced_submit

    def install_targets(self):
        for modname, attr, name, extra in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                raw = inspect.getattr_static(cls, member, None) if cls else None
                if raw is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                if isinstance(raw, staticmethod):
                    setattr(cls, member, staticmethod(self.wrap(name, raw.__func__, extra)))
                else:
                    setattr(cls, member, self.wrap(name, raw, extra))
                continue
            fn = getattr(mod, member, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self.rebind(fn, self.wrap(name, fn, extra))

    @staticmethod
    def rebind(fn, wrapper):
        """Replace fn at every dissipeuler module name bound to it."""
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "dissipeuler" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install_fft()
        tracer.install_threads()
    import dissipeuler.cli as cli
    if tracer:
        tracer.install_targets()

    report = {"setup_end": None}
    load_config = cli.load_config

    def timed_load_config(*a, **kw):
        cfg = load_config(*a, **kw)
        report["setup_end"] = time.monotonic()
        return cfg
    cli.load_config = timed_load_config

    try:
        run = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        return run(cli_args)
    finally:
        if tracer:
            report["missing"] = tracer.missing
            report["spans"] = tracer.spans
        with open(args.report, "w") as fh:
            json.dump(report, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
