"""Outside-in layer trace for the benchmark.

The tracer wraps public functions of the ``gmsteady`` modules from the
outside: each wrapper records a span (name, start, end, parent span, op
id) and is rebound in every ``gmsteady.*`` module that imported the
name, because the package uses ``from .x import y`` and patching only
the defining module would miss those calls.  No source under ``src/``
changes.  Spans stay in memory until the run ends.

Parent tracking is per thread.  A span opened on a thread whose own
stack is empty (the ``region`` thread pool) takes the main thread's
innermost open span, i.e. the op's ``cli`` span, as its parent.  Busy
time measured on pool threads includes waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import subprocess
import sys
import threading
import time

# (module, attribute, span name).  An attribute "Class.method" is patched
# on the class.  kernels and errors are left out: no timed workload
# spends time there.
TRACED = (
    ("gmsteady.cli", "main", "cli.main"),
    ("gmsteady.barriers", "classify", "barriers.classify"),
    ("gmsteady.barriers", "exp_regime_ledger", "barriers.ledger"),
    ("gmsteady.barriers", "alg_regime_ledger", "barriers.ledger"),
    ("gmsteady.barriers", "SourceModel.evaluate", "barriers.source_eval"),
    ("gmsteady.profiles", "eval_barrier", "profiles.eval_barrier"),
    ("gmsteady.radial_core", "solve_linear_radial_variable", "radial_core.solve"),
    ("gmsteady.radial_core", "apply_radial_laplacian", "radial_core.laplacian"),
    ("gmsteady.solvers", "solve_coupled_exp", "solvers.coupled"),
    ("gmsteady.solvers", "solve_coupled_alg", "solvers.coupled"),
    ("gmsteady.potentials", "bessel_potential_radial", "potentials.bessel"),
    ("gmsteady.potentials", "newton_potential_radial", "potentials.newton"),
    ("gmsteady.potentials", "representation_residual", "potentials.representation"),
    ("gmsteady.potentials", "convr_check", "potentials.probe"),
    ("gmsteady.certificates", "verify_solution", "certificates.verify"),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "cli.import_s", "cli.import_scipy_s", "cli.self_s",
    "barriers.classify_calls", "barriers.classify_s",
    "barriers.ledger_calls", "barriers.ledger_s",
    "barriers.source_eval_calls", "barriers.source_eval_s",
    "profiles.eval_barrier_calls", "profiles.eval_barrier_s",
    "radial_core.solve_calls", "radial_core.solve_s",
    "radial_core.laplacian_calls", "radial_core.laplacian_s",
    "radial_core.node_updates",
    "solvers.outer_iters", "solvers.coupled_s", "solvers.self_s",
    "solvers.doubled_ball_share",
    "potentials.bessel_calls", "potentials.bessel_s",
    "potentials.newton_calls", "potentials.newton_s",
    "potentials.representation_s", "potentials.probe_s",
    "certificates.verify_s", "certificates.self_s",
    "trace.overhead_ratio",
)


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


IMPORT_SCIPY_SUBTREES = ("scipy.linalg", "scipy.integrate", "scipy.interpolate", "scipy.special")


class Tracer:
    """Collects spans from wrapped gmsteady functions while installed."""

    def __init__(self):
        # span: [id, name, start, end, parent, op, attrs]
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:  # outside a timed op, e.g. an output check
                return func(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = [next(tracer._ids), name, time.perf_counter(), None, parent, tracer.op_id, None]
            stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span[6] = _span_attrs(name, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function and rebind it wherever it was imported."""
        import gmsteady  # noqa: F401  (loads every submodule)

        gm_modules = [m for k, m in sorted(sys.modules.items())
                      if (k == "gmsteady" or k.startswith("gmsteady.")) and m is not None]
        for mod_name, attr, span_name in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name)
            for mod in gm_modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write all spans as JSON lines (one span per line)."""
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _span_attrs(name, args, result):
    """Counts recorded at the span boundary: grid nodes and returned sizes."""
    if name == "radial_core.solve":
        return {"nodes": int(args[2].grid.n)}
    if name == "solvers.coupled":
        return {"iterations": int(result.iterations), "nodes": int(result.v.grid.n)}
    return None


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, n_ops):
    """Per-op busy times, call counts and self times from recorded spans."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def self_time(span):
        kids = [(k[2], k[3]) for k in children.get(span[0], ())]
        return (span[3] - span[2]) - _covered(kids, span[2], span[3])

    busy, calls, self_s = {}, {}, {}
    node_updates = outer_iters = 0
    doubled_s = 0.0
    for span in spans:
        name = span[1]
        busy[name] = busy.get(name, 0.0) + (span[3] - span[2])
        calls[name] = calls.get(name, 0) + 1
        if name in ("cli.main", "solvers.coupled", "certificates.verify"):
            self_s[name] = self_s.get(name, 0.0) + self_time(span)
        attrs = span[6] or {}
        if name == "radial_core.solve":
            node_updates += attrs.get("nodes", 0)
        elif name == "solvers.coupled":
            outer_iters += attrs["iterations"]
            # radial solves on grids larger than the returned one belong
            # to the ball-doubling check
            stack = list(children.get(span[0], ()))
            while stack:
                kid = stack.pop()
                stack.extend(children.get(kid[0], ()))
                if kid[1] == "radial_core.solve" and (kid[6] or {}).get("nodes", 0) > attrs.get("nodes", 0):
                    doubled_s += kid[3] - kid[2]

    per = 1.0 / max(n_ops, 1)
    solve_s = busy.get("radial_core.solve", 0.0)
    out = {
        "cli.self_s": self_s.get("cli.main", 0.0) * per,
        "radial_core.node_updates": node_updates * per,
        "solvers.outer_iters": outer_iters * per,
        "solvers.coupled_s": busy.get("solvers.coupled", 0.0) * per,
        "solvers.self_s": self_s.get("solvers.coupled", 0.0) * per,
        "solvers.doubled_ball_share": doubled_s / solve_s if solve_s > 0 else 0.0,
        "potentials.representation_s": busy.get("potentials.representation", 0.0) * per,
        "potentials.probe_s": busy.get("potentials.probe", 0.0) * per,
        "certificates.verify_s": busy.get("certificates.verify", 0.0) * per,
        "certificates.self_s": self_s.get("certificates.verify", 0.0) * per,
    }
    for span_name in ("barriers.classify", "barriers.ledger", "barriers.source_eval",
                      "profiles.eval_barrier", "radial_core.solve", "radial_core.laplacian",
                      "potentials.bessel", "potentials.newton"):
        out[span_name + "_calls"] = calls.get(span_name, 0) * per
        out[span_name + "_s"] = busy.get(span_name, 0.0) * per
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text):
    """(cumulative seconds of gmsteady.cli, seconds in the scipy subtrees).

    ``-X importtime`` prints each module once, children before parents,
    indented by depth.  A scipy subtree nested inside another counted
    subtree is not counted twice.
    """
    rows = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            depth = len(match.group(3)) // 2
            rows.append((depth, match.group(4), int(match.group(2)) * 1e-6))
    cli_s = None
    scipy_s = 0.0
    # walk parents before children: reversed post-order is pre-order
    counted_depth = None
    for depth, name, cumulative in reversed(rows):
        if counted_depth is not None and depth <= counted_depth:
            counted_depth = None
        if name == "gmsteady.cli":
            cli_s = cumulative
        if counted_depth is None and name in IMPORT_SCIPY_SUBTREES:
            scipy_s += cumulative
            counted_depth = depth
    if cli_s is None:
        raise RuntimeError("gmsteady.cli missing from -X importtime output")
    return cli_s, scipy_s


def measure_imports(env, cwd, samples=3):
    """Median import times from fresh ``python -X importtime`` processes."""
    cli, scipy = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gmsteady.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        a, b = parse_importtime(proc.stderr)
        cli.append(a)
        scipy.append(b)
    cli.sort()
    scipy.sort()
    return cli[len(cli) // 2], scipy[len(scipy) // 2]
