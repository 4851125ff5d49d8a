"""Span tracing of mpsylv's public functions, installed at run time.

`Tracer.install` replaces each traced function in every loaded ``mpsylv``
module namespace that holds it, so calls made through a module's own
imported name (``linalg.fl_mul``, ``refinement.schur``, ``cli.mp_orth``)
are recorded.  No source file of the package changes; `Tracer.uninstall`
puts every original object back.

Each call opens a span whose parent is the innermost span still open.
Spans are aggregated as they close, per function:

* ``calls``   -- number of completed calls;
* ``incl_ns`` -- wall time of the outermost activations only, so a
  recursive call is not counted twice;
* ``self_ns`` -- span duration minus the durations of its direct child
  spans, summed over all calls.

Aggregating on close keeps memory flat for the hundreds of thousands
of ``fl_*`` spans a traced run makes.
"""

from __future__ import annotations

import functools
import sys
import time

# The layers and the public functions traced in each.  Trivial helpers
# (vec, unvec, norm, ...) are left out: their wrapper would cost more than
# their body and no metric reads them.
TRACED = {
    "precision": ("fl_add", "fl_sub", "fl_mul", "fl_div", "fl_sqrt",
                  "round_matrix"),
    "linalg": ("gemm", "mgs_qr", "householder_qr", "lu", "lu_solve",
               "schur", "hermitian_eig"),
    "sylvester": ("solve_sylv_tri", "bartels_stewart", "solve_hermitian",
                  "residual"),
    "refinement": ("solve_pert_sylv_tri_stat", "ir_linear_system",
                   "mp_orth", "mp_inv"),
    "gmresir": ("apply_preconditioner", "gmres_ir_sylv"),
    "costmodel": ("flops", "flops_gmres_ir"),
    "cli": ("generate", "run_solve", "run_sweep_cond"),
    "mmio": ("read_matrix", "write_matrix"),
}

_CALLS, _INCL, _SELF, _ACTIVE = range(4)


def _package_modules() -> list[tuple[str, object]]:
    return [(n, m) for n, m in list(sys.modules.items())
            if m is not None and (n == "mpsylv" or n.startswith("mpsylv."))]


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list[int]] = []  # child-time accumulator per open span
        self._stats: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        stat = self._stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            stat[_ACTIVE] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[_ACTIVE] -= 1
                stat[_CALLS] += 1
                stat[_SELF] += dur - frame[0]
                if stat[_ACTIVE] == 0:
                    stat[_INCL] += dur
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an mpsylv module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in _package_modules()]
        for layer, names in TRACED.items():
            home = sys.modules[f"mpsylv.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Restore every attribute `install` replaced."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stats(self, name: str) -> dict:
        """calls, inclusive seconds and self seconds of one traced function."""
        s = self._stats.get(name, [0, 0, 0, 0])
        return {"calls": s[_CALLS], "incl_s": s[_INCL] / 1e9,
                "self_s": s[_SELF] / 1e9}

    def table(self) -> dict:
        return {name: self.stats(name) for name in sorted(self._stats)}


def assert_untraced() -> None:
    """Raise if any tracer wrapper is still bound in an mpsylv module."""
    for n, mod in _package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"tracer wrapper left on {n}.{attr}")
