"""Command-line front end: classification sweeps, solver runs, kernel tables.

Subcommands
    kernel   tabulate the fundamental solution, check its bounds and mass
    region   classify a parameter lattice and write a verdict table
    solve    run a coupled solver at one parameter point
    verify   certify a closed-form or dumped solution pair

Configuration comes from flags or from a key=value text file passed via
--config (one pair per line, '#' starts a comment, flag spellings with
dashes or underscores both accepted); explicit flags override the file.

Outputs: a JSON report per run (stable key order, explicit timestamp),
CSV tables with a header row, and two-column whitespace-separated field
dumps headed by "# r value".  Exit codes: 0 success, 1 usage or parse
error, 2 hypothesis refusal, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .barriers import (
    Exponents,
    Problem,
    SourceModel,
    VerdictStatus,
    alg_regime_ledger,
    classify,
    exp_regime_ledger,
)
from .certificates import verify_cor3, verify_solution
from .errors import FieldParseError, HypothesisError, NonexistenceError, RegimeError
from .kernels import GreenParams, green_lambda, green_lambda_mass, green_zero, verify_kernel_bounds
from .potentials import divergence_probe_rho
from .radial_core import RadialGrid, read_field, write_field
from .solvers import SolveStatus, solve_coupled_alg, solve_coupled_exp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # hypothesis refusals, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"error: {message}"))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_report(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise FieldParseError("expected key=value", lineno)
            key, _, val = text.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce_config_value(raw: str):
    low = raw.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill defaults from the config file; explicit flags keep priority."""
    if not getattr(args, "config", None):
        return
    file_values = _load_config(args.config)
    sentinel = parser.parse_args([args.command])  # defaults only
    for key, raw in file_values.items():
        if not hasattr(args, key):
            raise SystemExit(_fail(f"config: unknown key {key!r}"))
        if getattr(args, key) != getattr(sentinel, key, None):
            continue  # flag was given explicitly
        default = getattr(sentinel, key, None)
        if isinstance(default, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes"))
        elif isinstance(default, int):
            setattr(args, key, int(raw))
        elif isinstance(default, float):
            setattr(args, key, float(raw))
        else:
            # flags defaulting to None (paths, optional numbers): best-effort
            setattr(args, key, _coerce_config_value(raw))


def _parse_sweep(spec: str):
    """name=start:stop:count or name=v1,v2,... -> (name, values)."""
    if "=" not in spec:
        raise ValueError(f"sweep {spec!r} needs name=range")
    name, _, rng = spec.partition("=")
    name = name.strip()
    if ":" in rng:
        parts = rng.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep range {rng!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("sweep count must be >= 1")
        values = np.linspace(start, stop, count)
    else:
        values = np.array([float(v) for v in rng.split(",") if v.strip() != ""])
    if values.size == 0:
        raise ValueError(f"sweep {spec!r} is empty")
    return name, values


_SWEEPABLE = {"p", "q", "m", "s", "lam", "mu", "alpha", "beta", "rate"}


_ENVELOPES = {"exp": SourceModel.exp_envelope, "alg": SourceModel.alg_envelope}


def _problem_from_args(args, **overrides) -> tuple:
    """(Problem, Exponents) from the parsed flags, with swept values overriding.

    Subcommands without --rho-amplitude use the envelope midpoint.
    """
    vals = {name: getattr(args, name) for name in _SWEEPABLE}
    vals.update(overrides)
    exponents = Exponents(vals["p"], vals["q"], vals["m"], vals["s"])
    if args.rho == "zero":
        rho = SourceModel.zero()
    elif args.rho in _ENVELOPES:
        rho = _ENVELOPES[args.rho](
            vals["alpha"], vals["beta"], vals["rate"], getattr(args, "rho_amplitude", None)
        )
    else:
        raise ValueError(f"unknown source kind {args.rho!r}")
    return Problem(args.dimension, vals["lam"], vals["mu"], rho), exponents


def cmd_region(args) -> int:
    sweeps = []
    for spec in args.sweep:
        name, values = _parse_sweep(spec)
        if name not in _SWEEPABLE:
            raise ValueError(f"cannot sweep {name!r}; choose from {sorted(_SWEEPABLE)}")
        sweeps.append((name, values))
    if not sweeps:
        raise ValueError("region needs at least one --sweep")

    grids = np.meshgrid(*[v for _, v in sweeps], indexing="ij")
    header = ["index"] + [name for name, _ in sweeps] + ["status", "tag"]
    rows = []
    counts: dict = {}
    for i in range(grids[0].size):
        pt = {name: float(g.flat[i]) for (name, _), g in zip(sweeps, grids)}
        verdict = classify(*_problem_from_args(args, **pt))
        tag = verdict.tag or ""
        rows.append([i] + [pt[name] for name, _ in sweeps] + [verdict.status.value, tag])
        key = f"{verdict.status.value}:{tag}" if tag else verdict.status.value
        counts[key] = counts.get(key, 0) + 1

    if args.out_table:
        _write_csv(args.out_table, header, rows)
    report = {
        "command": "region",
        "version": __version__,
        "timestamp": _timestamp(),
        "dimension": args.dimension,
        "rho": args.rho,
        "sweeps": {name: [float(v) for v in vals] for name, vals in sweeps},
        "counts": counts,
        "points": len(rows),
    }
    _write_report(args.report, report)
    for key in sorted(counts):
        print(f"{key}: {counts[key]}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    problem, exponents = _problem_from_args(args)
    verdict = classify(problem, exponents)
    if verdict.status is not VerdictStatus.EXISTENCE_GUARANTEED and not args.force:
        detail = verdict.reason
        if verdict.ledger is not None:
            detail += f"; violated: {verdict.ledger.violated}"
        print(f"refused: {detail}", file=sys.stderr)
        return EXIT_REFUSED

    grid = None
    if args.radius is not None:
        grid = RadialGrid.auto(args.radius, h0=args.h0, stretch=args.stretch)
    try:
        # --force bypasses only the classification gate; the solver still
        # needs a feasible ledger, rebuilt here when the verdict has none
        if problem.lam > 0:
            ledger = verdict.ledger or exp_regime_ledger(
                exponents, args.dimension, args.lam, args.mu,
                args.alpha, args.beta, args.rate)
            report = solve_coupled_exp(problem, exponents, ledger, grid=grid)
        else:
            ledger = verdict.ledger or alg_regime_ledger(
                exponents, args.dimension, args.alpha, args.beta, args.rate)
            report = solve_coupled_alg(problem, exponents, ledger, grid=grid)
    except (RegimeError, HypothesisError, NonexistenceError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED

    payload = {
        "command": "solve",
        "version": __version__,
        "timestamp": _timestamp(),
        "parameters": {
            "dimension": args.dimension, "lam": args.lam, "mu": args.mu,
            "p": args.p, "q": args.q, "m": args.m, "s": args.s,
            "rho": args.rho, "alpha": args.alpha, "beta": args.beta,
            "rate": args.rate,
        },
        "verdict": verdict.as_dict(),
        "rho_divergence": divergence_probe_rho(args.dimension, problem.rho).as_dict(),
        "solve": report.as_dict(),
    }
    _write_report(args.report, payload)
    if report.u is not None and args.out_u:
        write_field(report.u, args.out_u)
    if args.out_v:
        write_field(report.v, args.out_v)
    if report.status is SolveStatus.CONVERGED:
        return EXIT_OK
    return EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    if args.cor3:
        grid = RadialGrid.uniform(args.radius or 20.0, args.nodes)
        cert = verify_cor3(args.dimension, args.p, args.s, args.amplitude, grid)
        payload = {
            "command": "verify",
            "version": __version__,
            "timestamp": _timestamp(),
            "mode": "cor3",
            "certificate": cert.as_dict(),
        }
        _write_report(args.report, payload)
        ok = max(cert.residual_u, cert.residual_v) <= args.tol
        return EXIT_OK if ok else EXIT_NO_CONVERGENCE

    if not (args.u_field and args.v_field):
        raise ValueError("verify needs --cor3 or both --u-field and --v-field")
    u = read_field(args.u_field)
    v = read_field(args.v_field)
    from .profiles import BarrierFamily, BarrierProfile

    family = BarrierFamily.W if args.lam > 0 else BarrierFamily.Z
    if args.u_rate:
        u.decay_tag = BarrierProfile(family, args.u_rate)
    if args.v_rate:
        v.decay_tag = BarrierProfile(family, args.v_rate)
    problem, exponents = _problem_from_args(args)
    cert = verify_solution(
        problem, exponents, u, v, representation=not args.no_representation
    )
    payload = {
        "command": "verify",
        "version": __version__,
        "timestamp": _timestamp(),
        "mode": "fields",
        "certificate": cert.as_dict(),
    }
    _write_report(args.report, payload)
    return EXIT_OK if cert.max_residual() <= args.tol else EXIT_NO_CONVERGENCE


def cmd_kernel(args) -> int:
    if args.lam < 0:
        raise ValueError("shift must be >= 0")
    r_values = np.geomspace(args.r_min, args.r_max, args.r_count)
    if args.lam == 0:
        values = [green_zero(args.dimension, float(r)) for r in r_values]
        mass = None  # the unshifted kernel is not integrable
        bounds = None
    else:
        params = GreenParams(args.dimension, args.lam)
        values = [green_lambda(params, float(r)) for r in r_values]
        mass = green_lambda_mass(params)
        if args.r_min < 1.0 < args.r_max:
            bounds = verify_kernel_bounds(params, r_values)
        else:
            bounds = None

    header = ["r", "value", "mass_identity"]
    mass_cell = mass if mass is not None else ""
    rows = [[float(r), float(v), mass_cell] for r, v in zip(r_values, values)]
    if args.out_table:
        _write_csv(args.out_table, header, rows)
    payload = {
        "command": "kernel",
        "version": __version__,
        "timestamp": _timestamp(),
        "dimension": args.dimension,
        "lam": args.lam,
        "mass_integral": mass,
        "expected_mass": (1.0 / args.lam) if args.lam > 0 else None,
        "c1": bounds.c1 if bounds else None,
        "c2": bounds.c2 if bounds else None,
        "rows": len(rows),
    }
    _write_report(args.report, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmsteady", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--report", help="JSON report path ('-' for stdout, default)")
        p.add_argument("--dimension", "-N", type=int, default=3, help="ambient dimension N >= 3")

    def add_problem(p):
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--q", type=float, default=1.0)
        p.add_argument("--m", type=float, default=1.0)
        p.add_argument("--s", type=float, default=0.0)
        p.add_argument("--lam", type=float, default=0.0, help="shift of the u equation")
        p.add_argument("--mu", type=float, default=0.0, help="shift of the v equation")
        p.add_argument("--rho", choices=["zero", "exp", "alg"], default="zero",
                       help="source model kind")
        p.add_argument("--alpha", type=float, default=1.0, help="lower envelope constant")
        p.add_argument("--beta", type=float, default=2.0, help="upper envelope constant")
        p.add_argument("--rate", type=float, default=1.0, help="envelope decay rate")

    p_region = sub.add_parser("region", help="classify a parameter lattice")
    add_common(p_region)
    add_problem(p_region)
    p_region.add_argument("--sweep", action="append", default=[],
                          help="name=start:stop:count or name=v1,v2,... (repeatable)")
    p_region.add_argument("--out-table", help="CSV output path")
    p_region.set_defaults(func=cmd_region)

    p_solve = sub.add_parser("solve", help="run a coupled solver at one point")
    add_common(p_solve)
    add_problem(p_solve)
    p_solve.add_argument("--rho-amplitude", type=float, default=None,
                         help="evaluable amplitude in [alpha, beta] (default midpoint)")
    p_solve.add_argument("--force", action="store_true",
                         help="run even when classification is not existence-guaranteed")
    p_solve.add_argument("--radius", type=float, default=None, help="truncation radius")
    p_solve.add_argument("--h0", type=float, default=0.02, help="initial grid spacing")
    p_solve.add_argument("--stretch", type=float, default=1.02, help="grid stretch factor")
    p_solve.add_argument("--out-u", help="u field dump path")
    p_solve.add_argument("--out-v", help="v field dump path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="certify a solution pair")
    add_common(p_verify)
    add_problem(p_verify)
    p_verify.add_argument("--cor3", action="store_true",
                          help="verify the closed-form supercritical pair")
    p_verify.add_argument("--amplitude", type=float, default=1.0, help="closed-form amplitude A")
    p_verify.add_argument("--radius", type=float, default=None)
    p_verify.add_argument("--nodes", type=int, default=20001)
    p_verify.add_argument("--tol", type=float, default=1e-5,
                          help="max residual for exit code 0")
    p_verify.add_argument("--u-field", help="two-column u dump")
    p_verify.add_argument("--v-field", help="two-column v dump")
    p_verify.add_argument("--u-rate", type=float, default=None, help="declared u decay rate")
    p_verify.add_argument("--v-rate", type=float, default=None, help="declared v decay rate")
    p_verify.add_argument("--rho-amplitude", type=float, default=None)
    p_verify.add_argument("--no-representation", action="store_true",
                          help="skip the integral-representation residuals")
    p_verify.set_defaults(func=cmd_verify)

    p_kernel = sub.add_parser("kernel", help="tabulate the fundamental solution")
    add_common(p_kernel)
    p_kernel.add_argument("--lam", type=float, default=1.0, help="kernel shift (0 for -Delta)")
    p_kernel.add_argument("--r-min", type=float, default=0.01)
    p_kernel.add_argument("--r-max", type=float, default=20.0)
    p_kernel.add_argument("--r-count", type=int, default=64)
    p_kernel.add_argument("--out-table", help="CSV output path")
    p_kernel.set_defaults(func=cmd_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_config(args, parser)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except FieldParseError as exc:
        return _fail(f"parse error: {exc}")
    except (RegimeError, HypothesisError, NonexistenceError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:
        return _fail(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
