"""gmsteady benchmark: one workload per invocation, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload region-lattice --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
set-up time (median of fresh interpreters that import gmsteady and build
the seeded inputs), cold start (median of fresh ``python -m gmsteady.cli``
runs of the workload's representative command), warm operation times,
throughput and peak RSS.  ``--trace 1`` measures per-layer metrics
instead: an untraced half-run, then a traced half-run whose spans come
from wrappers around the package's public functions (see tracing.py).

A run makes a fixed number of operations, the ones ``--seconds`` holds at
the workload's nominal operation time, so the same seed always attempts
the same operations.  Warm operation times are reported in units of a fixed
reference kernel (``ref``): the benchmark times a block of kernel runs
before each operation and after the last, and divides each operation's
time by the mean of the two blocks around it, which cancels most of the
host's speed drift.  Cold starts are divided likewise by fresh
interpreters that import numpy and scipy only.  The seconds themselves
are printed as well.

The program is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit, workload and sample count, the
failure accounting and the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("region-lattice", "solve-verify-alg", "solve-verify-exp")

SETUP_SAMPLES = 3
COLD_SAMPLES = 3
TAIL_BEYOND = 10
#: Reference-kernel time spent before each operation, as a share of the
#: workload's nominal operation time.
REF_SHARE = 0.08
#: The reference for cold starts: a fresh interpreter importing what
#: gmsteady.cli imports from numpy and scipy, with no gmsteady code.
REF_LAUNCH = ("import numpy, scipy.linalg, scipy.integrate, scipy.interpolate, scipy.special")

END_TO_END_UNITS = {
    "setup_s": "s", "cold_start_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                    help="one workload, or 'all' to run each in turn in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed loop length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny inputs and single samples (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def import_program():
    """Import gmsteady from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "gmsteady" / "__init__.py").is_file():
        raise SystemExit(f"error: no gmsteady package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmsteady

    if Path(gmsteady.__file__).resolve().parent != (SRC / "gmsteady").resolve():
        raise SystemExit(f"error: gmsteady imported from {gmsteady.__file__}, not {SRC}")
    import workloads

    return workloads


_REF_BANDED = np.vstack([np.full(800, -1.0), np.full(800, 2.5), np.full(800, -1.0)])
_REF_RHS = np.linspace(0.0, 1.0, 800)


def reference_kernel():
    """Fixed interpreter, numpy and LAPACK work, independent of gmsteady.

    It is a mix like the program's own (scalar Python arithmetic,
    small-array numpy calls and banded solves on one thread), so host
    contention slows both alike.
    """
    from scipy.linalg import solve_banded

    acc = 0.0
    for i in range(1, 20001):
        acc += math.sqrt(i) / i
    x = np.linspace(1.0, 2.0, 1000)
    for _ in range(300):
        x = np.sqrt(x * x + 1e-3) * 0.999
    for _ in range(40):
        x[:800] += 1e-12 * solve_banded((1, 1), _REF_BANDED, _REF_RHS)
    return acc + float(x[0])


def _pool_item(i):
    acc = 0.0
    d = {"p": 1.0 + i * 1e-6, "q": 2.0}
    for k in range(1, 120):
        acc += abs(math.sqrt(k * d["p"]) / (k + d["q"]) - 0.5)
    return acc


def pool_reference_kernel():
    """Fixed pure-Python items mapped over a thread pool sized as ``region`` sizes its own.

    ``region``'s time is set largely by the pool threads and the waiting
    main thread handing the interpreter lock to each other; this kernel
    makes the same kind of hand-offs.
    """
    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        return sum(pool.map(_pool_item, range(2000)))


#: name -> (kernel, nominal time of one run, used only to size the blocks)
REFERENCE_KERNELS = {
    "serial": (reference_kernel, 0.008),
    "pool": (pool_reference_kernel, 0.12),
}


class Reference:
    """Times of a reference kernel, taken in blocks between operations."""

    def __init__(self, kernel="serial"):
        self.kernel, self.nominal_s = REFERENCE_KERNELS[kernel]
        self.times = []
        self.blocks = []  # median kernel time of each block, in order

    def block(self, seconds):
        times = []
        for _ in range(max(1, round(seconds / self.nominal_s))):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.times += times
        self.blocks.append(median(times))

    def launch(self, env, cwd):
        """Time one fresh interpreter running REF_LAUNCH, as a block."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REF_LAUNCH], env=env, cwd=cwd, check=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        self.blocks.append(self.times[-1])

    def unit(self):
        """Median kernel time: the ``ref`` unit of this stretch of the run."""
        return median(self.times)

    def scale(self, times):
        """Each time over the mean of the blocks just before and after it.

        Expects one block before each time and one after the last.
        """
        return [t / (0.5 * (a + b)) for t, a, b in zip(times, self.blocks, self.blocks[1:])]


def ops_for(wl, seconds):
    """Operations a run of ``seconds`` makes: fixed by the workload, not timed."""
    return max(1, math.ceil(seconds / wl.nominal_op_s))


@contextlib.contextmanager
def phase(phases, name):
    """Record the wall time of a step of the run, for the run metadata."""
    t0 = time.perf_counter()
    yield
    phases[name] = round(time.perf_counter() - t0, 3)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Up to 2 * TAIL_BEYOND
    samples that percentile lies at or under the median, so the median is
    returned; with TAIL_BEYOND samples or fewer, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    if n <= 2 * TAIL_BEYOND:
        return median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _blas_threads():
    """OpenBLAS thread counts of the numpy and scipy wheels, where found."""
    out = {}
    for pkg in ("numpy", "scipy"):
        try:
            mod = __import__(pkg)
        except ImportError:
            continue
        libdir = Path(mod.__file__).parent.parent / f"{pkg}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg] = {"library": Path(path).name, "threads": fn()}
                    break
    return out


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gmsteady").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.reasons = Counter()
        self.sol_err_rel = None

    def add(self, verdict=None, exc=None):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.reasons[f"exception {type(exc).__name__}: {exc}"] += 1
            return
        if verdict.sol_err_rel is not None:
            self.sol_err_rel = max(self.sol_err_rel or 0.0, verdict.sol_err_rel)
        if verdict.failures:
            self.failed += 1
            self.wrong = self.wrong or verdict.wrong
            for reason in verdict.failures:
                self.reasons[reason] += 1


def measure_setup(args, env, samples):
    """Wall times from launching a fresh worker until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.short:
        cmd.append("--short")
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up worker failed (exit {code})")
        times.append(elapsed)
    return times


def measure_cold(wl, env, tmpdir, samples, tally, ref):
    """Wall time of the workload's CLI commands, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        ref.launch(env, tmpdir)
        total = 0.0
        for cmd in wl.cold_commands(tmpdir):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "gmsteady.cli", *cmd], env=env, cwd=tmpdir,
                                  capture_output=True, text=True, timeout=170)
            total += time.perf_counter() - t0
            tally.attempted += 1
            if proc.returncode != 0:
                tally.failed += 1
                tally.reasons[f"cold {cmd[0]} exit {proc.returncode}"] += 1
        times.append(total)
    ref.launch(env, tmpdir)
    return times


def run_loop(wl, tmpdir, n_ops, tally, ref=None, tracer=None):
    """Closed loop: the next op starts when the previous one and its check end.

    Returns (op wall times, points attempted in those ops).  Checks run
    outside the op's timing; every op's time counts, failed or not.  With
    ``ref``, a block of reference-kernel runs precedes each op and follows
    the last.
    """
    times = []
    points = 0
    for _ in range(n_ops):
        if ref is not None:
            ref.block(REF_SHARE * wl.nominal_op_s)
        if tracer is not None:
            tracer.op_id = tally.attempted
        t0 = time.perf_counter()
        try:
            result = wl.op(tmpdir)
        except Exception as exc:  # noqa: BLE001 - any failure is counted and the run goes on
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op_id = None
            tally.add(exc=exc)
        else:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op_id = None
            tally.add(wl.check(result))
        points += wl.points_per_op
    if ref is not None:
        ref.block(REF_SHARE * wl.nominal_op_s)
    return times, points


def warm_up(wl, tmpdir, tally):
    """Untimed ops that let caches fill and lazy set-up finish; still checked."""
    run_loop(wl, tmpdir, wl.warmup_ops, tally)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(argv):
    """Run every workload in its own process with the same arguments."""
    codes = []
    for name in WORKLOAD_NAMES:
        rest = list(argv)
        rest[rest.index("all")] = name
        codes.append(subprocess.run([sys.executable, str(Path(__file__).resolve()), *rest]).returncode)
    return max(codes)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    workloads = import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, short=args.short)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # the default environment: region sizes its thread pool from nproc
    os.environ.pop("GM_STEADY_THREADS", None)
    env = child_env()
    tmpdir = WORK / "tmp" / f"run-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        meta = metadata(args)
        tally = Tally()
        rows = []  # (metric, value, unit, samples, note)
        phases = meta["phase_s"] = {}
        if args.trace == 0:
            metrics = measure_end_to_end(args, wl, env, str(tmpdir), tally, rows, phases)
        else:
            metrics = measure_layers(args, wl, env, str(tmpdir), tally, rows, phases)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    meta["loadavg_end"] = _loadavg()

    failed_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    rows.append(("failed_ratio", failed_ratio, "ratio", tally.attempted,
                 f"{tally.failed} failed of {tally.attempted} attempted"))
    if tally.sol_err_rel is not None:
        rows.append(("sol_err_rel", tally.sol_err_rel, "ratio", tally.attempted,
                     "largest over all passes, against the tightened reference solve"))
    meta["samples"] = {name: samples for name, _, _, samples, _ in rows}
    meta["notes"] = {name: note for name, _, _, _, note in rows if note}
    for name, value, unit, samples, note in rows:
        print(f"{args.workload:<17} {name:<28} {_fmt(value):>12} {unit:<6} n={samples:<6} {note}")
    for reason, count in tally.reasons.most_common():
        print(f"{args.workload:<17} failure x{count}: {reason}")
    correct = not tally.wrong
    print(f"{args.workload:<17} output check: {'correct' if correct else 'WRONG OUTPUT'}"
          f" ({tally.failed} of {tally.attempted} ops failed)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def measure_end_to_end(args, wl, env, tmpdir, tally, rows, phases):
    setup_n = 1 if args.short else SETUP_SAMPLES
    cold_n = 1 if args.short else COLD_SAMPLES
    with phase(phases, "compile"):
        # compile bytecode once so no sample below pays for it
        subprocess.run([sys.executable, "-c", "import gmsteady.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
    with phase(phases, "setup"):
        setup = measure_setup(args, env, setup_n)
    cold_ref = Reference()
    with phase(phases, "cold"):
        cold = measure_cold(wl, env, tmpdir, cold_n, tally, cold_ref)
    with phase(phases, "prepare"):
        wl.prepare()
        warm_up(wl, tmpdir, tally)
    ref = Reference(wl.reference)
    with phase(phases, "loop"):
        times, points = run_loop(wl, tmpdir, ops_for(wl, args.seconds), tally, ref)
    value, pct, beyond = tail(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = ref.scale(times)
    value_ref, _, _ = tail(scaled)
    tail_note = f"p{pct:.1f}, {beyond} samples beyond"
    values = {
        "setup_s": (median(setup), len(setup), "median of fresh interpreters: import + seeded inputs"),
        "cold_start_ref": (median(cold_ref.scale(cold)), len(cold), "median launch time over adjacent reference launches"),
        "op_p50_ref": (median(scaled), len(times), "median warm op time over adjacent ref"),
        "op_tail_ref": (value_ref, len(times), f"op time over adjacent ref; {tail_note}"),
        "peak_rss_mb": (peak_mb, 1, "ru_maxrss of the benchmark process"),
    }
    metrics = {}
    for name, (v, n, note) in values.items():
        rows.append((name, v, END_TO_END_UNITS[name], n, note))
        metrics[name] = (v, END_TO_END_UNITS[name])
    # printed only: the timings in seconds, which the host's speed drift
    # makes too unsteady to bound, and throughput over the whole loop,
    # which one slow op moves
    rows += [
        ("points_per_ref", points / sum(scaled), "1/ref", len(times), "points per ref of op time"),
        ("cold_start_s", median(cold), "s", len(cold), "median of fresh CLI runs, one at a time"),
        ("op_p50_s", median(times), "s", len(times), "median warm op"),
        ("op_tail_s", value, "s", len(times), tail_note),
        ("points_per_s", points / sum(times), "1/s", len(times), f"{points} points in the timed loop"),
        ("ref_s", ref.unit(), "s", len(ref.times), "median reference-kernel run in the timed loop"),
        ("cold_ref_s", cold_ref.unit(), "s", len(cold_ref.times), "median reference launch"),
    ]
    return metrics


def measure_layers(args, wl, env, tmpdir, tally, rows, phases):
    import tracing

    import_n = 1 if args.short else 3
    with phase(phases, "imports"):
        import_s, import_scipy_s = tracing.measure_imports(env, str(ROOT), samples=import_n)
    with phase(phases, "prepare"):
        wl.prepare()
        warm_up(wl, tmpdir, tally)
    half = ops_for(wl, args.seconds / 2)
    untraced_ref, traced_ref = Reference(wl.reference), Reference(wl.reference)
    with phase(phases, "untraced"):
        untraced, _ = run_loop(wl, tmpdir, half, tally, untraced_ref)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with phase(phases, "traced"):
            traced, _ = run_loop(wl, tmpdir, half, tally, traced_ref, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    values = tracing.layer_metrics(tracer.spans, len(traced))
    values["cli.import_s"] = import_s
    values["cli.import_scipy_s"] = import_scipy_s
    values["trace.overhead_ratio"] = (median(traced_ref.scale(traced))
                                      / median(untraced_ref.scale(untraced)) - 1.0)
    metrics = {}
    for name in tracing.PER_LAYER:
        unit = tracing.unit_of(name)
        if name.startswith("cli.import"):
            n, note = import_n, "median of fresh -X importtime runs"
        elif name == "trace.overhead_ratio":
            n, note = len(traced), f"traced over untraced op_p50_ref ({len(untraced)} ops), minus 1"
        else:
            n, note = len(traced), "per traced op"
        rows.append((name, values[name], unit, n, note))
        metrics[name] = (values[name], unit)
    rows.append(("trace.spans", len(tracer.spans), "count", len(traced), str(trace_path.relative_to(ROOT))))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
