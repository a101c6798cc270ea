"""Command-line front end: classification sweeps, solver runs, kernel tables.

Subcommands
    kernel   tabulate the fundamental solution, check its bounds and mass
    region   classify a parameter lattice and write a verdict table
    solve    run a coupled solver at one parameter point
    verify   certify a closed-form or dumped solution pair

Configuration comes from flags or from a key=value text file passed via
--config (one pair per line, '#' starts a comment, keys are the long flag
names with dashes or underscores).  Each pair becomes a flag placed before
the explicit ones, so argparse converts and checks file values like flag
values and an explicit flag wins over the file.

Outputs: a JSON report per run (stable key order, explicit timestamp;
result dataclasses appear as their fields), CSV tables with a header
row, and two-column whitespace-separated field dumps headed by
"# r value".  Exit codes: 0 success, 1 usage or parse error, 2
hypothesis refusal, 3 non-convergence; each non-zero exit ends with a
one-line reason on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from . import __version__
from .barriers import (
    DEFERRED,
    VERDICT_CODES,
    Exponents,
    Problem,
    SourceModel,
    VerdictStatus,
    classify,
    classify_many,
)
from .errors import FieldParseError, HypothesisError, NonexistenceError, RegimeError
from .profiles import BarrierFamily, BarrierProfile

# solve, verify and kernel import their numerics in their handlers, so
# region and the parser start without the solver and certificate stack

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

    def parse_known_args(self, args=None, namespace=None):
        # argparse before Python 3.12 drops the value of --flag=-- and
        # stores an empty list, which no subcommand can use
        for token in args or ():
            flag, eq, value = token.partition("=")
            if flag.startswith("--") and eq and value == "--":
                self.error(f"argument {flag}: expected one argument")
        return super().parse_known_args(args, namespace)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _jsonable(obj):
    """``obj`` as strict JSON data: the one report format of every command.

    A dataclass becomes a dict of its fields, less those marked
    ``field(metadata={"report": False})``; an Enum becomes its value, a
    tuple or list a list, and a dict keeps its keys; a non-finite float
    is spelled "inf", "-inf" or "nan".
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.metadata.get("report", True)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def _write_report(path, command: str, **fields) -> None:
    report = {"command": command, "version": __version__,
              "timestamp": datetime.now(timezone.utc).isoformat(), **fields}
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, default=float, allow_nan=False)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _unconverged(reason: str) -> int:
    print(f"unconverged: {reason}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _verify_exit(residuals: dict, tol: float) -> int:
    """Exit 0 if no residual exceeds ``tol``, else 3 naming the worst one."""
    worst = max(residuals, key=residuals.get)
    if residuals[worst] <= tol:
        return EXIT_OK
    return _unconverged(f"{worst} {residuals[worst]:.3e} > --tol {tol:g}")


def _csv_cells(groups) -> list:
    """Each group of cells as csv.writer writes it within a row, without line end.

    Quoting is minimal, so a cell is quoted by its own text alone, except
    that a group of one empty cell is written as "" (a row of one empty
    cell): give an empty cell a neighbour in its group.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    out = []
    for group in groups:
        writer.writerow(group)
        out.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return out


#: rows that ``_write_table`` joins into one string and writes with one call
_BLOCK_ROWS = 4096


def _write_table(path, header, columns) -> None:
    """Write a CSV table whose row i joins the i-th string of each column.

    The column strings come from ``_csv_cells``, so the file holds the
    bytes that csv.writer writes for the same header and rows.  Rows are
    joined in blocks of ``_BLOCK_ROWS``, each written with one call, so
    the per-row joins run in C and no string holds the whole table.
    """
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_cells([header])[0] + "\r\n")
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


_SWITCH_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _load_config(path, command_parser: argparse.ArgumentParser) -> list:
    """Flag tokens for ``command_parser`` from a key = value config file.

    ``lam = 4`` gives ``--lam 4``, so argparse reads the value as it
    reads the flag on the command line; a switch key gives its flag for
    true/yes/1 and nothing for false/no/0.
    """
    flags = command_parser._option_string_actions
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise FieldParseError("expected key=value", lineno)
            key, _, val = text.partition("=")
            key, val = key.strip(), val.strip()
            flag = "--" + key.replace("_", "-")
            if flag not in flags or flag in ("--config", "--help"):
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if flags[flag].nargs != 0:
                tokens += [flag, val]
            elif val.lower() not in _SWITCH_VALUES:
                raise ValueError(
                    f"config line {lineno}: {key} takes true/yes/1 or false/no/0, got {val!r}")
            elif _SWITCH_VALUES[val.lower()]:
                tokens.append(flag)
    return tokens


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
        if not math.isfinite(stop - start):
            raise ValueError(f"sweep range {rng!r} needs finite ends")
        if count < 1:
            raise ValueError("sweep count must be >= 1")
        values = np.linspace(start, stop, count)
    else:
        values = np.array([float(v) for v in rng.split(",") if v.strip() != ""])
    if values.size == 0:
        raise ValueError(f"sweep {spec!r} is empty")
    return name, values


_SWEEPABLE = {"p", "q", "m", "s", "lam", "mu", "alpha", "beta", "rate"}


# --rho kind -> envelope family (None for the zero source)
_FAMILIES = {"zero": None, "exp": BarrierFamily.W, "alg": BarrierFamily.Z}


def _problem_from_args(args, **overrides) -> tuple:
    """(Problem, Exponents) from the parsed flags, with swept values overriding.

    Subcommands without --rho-amplitude use the envelope midpoint.
    """
    vals = {name: getattr(args, name) for name in _SWEEPABLE}
    vals.update(overrides)
    exponents = Exponents(vals["p"], vals["q"], vals["m"], vals["s"])
    family = _FAMILIES[args.rho]
    if family is None:
        rho = SourceModel.zero()
    else:
        rho = SourceModel(family, vals["alpha"], vals["beta"], vals["rate"],
                          getattr(args, "rho_amplitude", None))
    return Problem(args.dimension, vals["lam"], vals["mu"], rho), exponents


def cmd_region(args) -> int:
    sweeps = []
    for spec in args.sweep:
        name, values = _parse_sweep(spec)
        if name not in _SWEEPABLE:
            raise ValueError(f"cannot sweep {name!r}; choose from {sorted(_SWEEPABLE)}")
        if any(name == seen for seen, _ in sweeps):
            raise ValueError(f"--sweep {name} is given more than once")
        sweeps.append((name, values))
    if not sweeps:
        raise ValueError("region needs at least one --sweep")

    names = [name for name, _ in sweeps]
    # lattice point i takes sweep k's value at lattice[k, i], in C order
    lattice = np.indices([values.size for _, values in sweeps]).reshape(len(sweeps), -1)
    params = {name: getattr(args, name) for name in _SWEEPABLE}
    params.update((name, values[at]) for (name, values), at in zip(sweeps, lattice))
    codes = classify_many(args.dimension, _FAMILIES[args.rho], **params)
    # in lattice order, so the first point that fails fails as it does in classify
    for i in np.flatnonzero(codes == DEFERRED):
        verdict = classify(*_problem_from_args(
            args, **{name: float(params[name][i]) for name in names}))
        codes[i] = VERDICT_CODES.index((verdict.status.value, verdict.tag or ""))

    counts = {}
    for code, count in enumerate(np.bincount(codes, minlength=len(VERDICT_CODES)).tolist()):
        status, tag = VERDICT_CODES[code]
        if count:
            counts[f"{status}:{tag}" if tag else status] = count
    if args.out_table:
        # each swept value (as its repr, which is how csv writes a float)
        # and each status,tag pair is formatted once; the lattice gathers them
        swept = [np.array(_csv_cells(zip(map(repr, values.tolist()))), dtype=object)[at].tolist()
                 for (_, values), at in zip(sweeps, lattice)]
        labels = np.array(_csv_cells(VERDICT_CODES), dtype=object)[codes].tolist()
        _write_table(args.out_table, ["index", *names, "status", "tag"],
                     [map(str, range(codes.size)), *swept, labels])
    _write_report(args.report, "region", dimension=args.dimension, rho=args.rho,
                  sweeps={name: vals.tolist() for name, vals in sweeps},
                  counts=counts, points=codes.size)
    for key in sorted(counts):
        print(f"{key}: {counts[key]}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    from .potentials import divergence_probe_rho
    from .radial_core import RadialGrid, write_field
    from .solvers import _BALL_GRIDS, SolveStatus, solve_coupled_alg, solve_coupled_exp

    if args.radius is None and (args.h0 is not None or args.stretch is not None):
        raise ValueError("--h0 and --stretch shape the --radius grid; they need --radius")
    problem, exponents = _problem_from_args(args)
    verdict = classify(problem, exponents)
    if verdict.status is not VerdictStatus.EXISTENCE_GUARANTEED:
        print(f"refused: {verdict.reason}", file=sys.stderr)
        return EXIT_REFUSED

    grid = None
    if args.radius is not None:
        h0, stretch = _BALL_GRIDS[problem.family]  # the flags override the family's recipe
        grid = RadialGrid.auto(args.radius, h0 if args.h0 is None else args.h0,
                               stretch if args.stretch is None else args.stretch)
    solve = solve_coupled_exp if problem.lam > 0 else solve_coupled_alg
    report = solve(problem, exponents, verdict.ledger, grid=grid)

    parameters = {name: getattr(args, name) for name in ("dimension", "rho", *_SWEEPABLE)}
    _write_report(args.report, "solve", parameters=parameters, verdict=verdict,
                  rho_divergence=divergence_probe_rho(args.dimension, problem.rho),
                  solve=report)
    if report.u is not None and args.out_u:
        write_field(report.u, args.out_u)
    if args.out_v:
        write_field(report.v, args.out_v)
    if report.status is SolveStatus.CONVERGED:
        return EXIT_OK
    return _unconverged("; ".join([report.status.value, *report.notes]))


def cmd_verify(args) -> int:
    from .certificates import verify_cor3, verify_solution
    from .radial_core import RadialGrid, read_field

    if args.cor3:
        grid = RadialGrid.uniform(20.0 if args.radius is None else args.radius, args.nodes)
        cert = verify_cor3(args.dimension, args.p, args.s, args.amplitude, grid)
        _write_report(args.report, "verify", mode="cor3", certificate=cert)
        return _verify_exit(cert.residuals(), args.tol)

    if not (args.u_field and args.v_field):
        raise ValueError("verify needs --cor3 or both --u-field and --v-field")
    u = read_field(args.u_field)
    v = read_field(args.v_field)
    problem, exponents = _problem_from_args(args)
    if args.u_rate is not None:
        u.decay_tag = BarrierProfile(problem.family, args.u_rate)
    if args.v_rate is not None:
        v.decay_tag = BarrierProfile(problem.family, args.v_rate)
    cert = verify_solution(
        problem, exponents, u, v, representation=not args.no_representation
    )
    _write_report(args.report, "verify", mode="fields", certificate=cert)
    return _verify_exit(cert.residuals(), args.tol)


def cmd_kernel(args) -> int:
    from .kernels import GreenParams, green_lambda, green_lambda_mass, verify_kernel_bounds

    if not (0.0 < args.r_min < math.inf and 0.0 < args.r_max < math.inf):
        raise ValueError("kernel needs finite positive --r-min and --r-max")
    r_values = np.geomspace(args.r_min, args.r_max, args.r_count)
    params = GreenParams(args.dimension, args.lam)
    mass = bounds = None  # stay None for the unshifted kernel, which is not integrable
    # at extreme radii and shifts the closed forms overflow or meet 0 * inf;
    # such runs are refused by the finiteness checks, without warnings
    with np.errstate(all="ignore"):
        values = [green_lambda(params, float(r)) for r in r_values]
        if not all(map(math.isfinite, values)):
            raise ValueError("kernel values leave float64 range on the requested radii")
        if args.lam > 0:
            if args.r_min < 1.0 < args.r_max:
                bounds = verify_kernel_bounds(params, r_values)
            mass = green_lambda_mass(params)
            if not math.isfinite(mass):
                raise ValueError("kernel mass 1/lam leaves float64 range")

    mass_cell = mass if mass is not None else ""
    if args.out_table:
        # the mass cell may be empty, so it is formatted with its row's value
        _write_table(args.out_table, ["r", "value", "mass_identity"],
                     [_csv_cells(zip(r_values.tolist())),
                      _csv_cells((float(v), mass_cell) for v in values)])
    _write_report(args.report, "kernel", dimension=args.dimension, lam=args.lam,
                  mass_integral=mass, expected_mass=(1.0 / args.lam) if args.lam > 0 else None,
                  c1=bounds.c1 if bounds else None, c2=bounds.c2 if bounds else None,
                  rows=len(values))
    return EXIT_OK


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``gmsteady`` parser, with every subcommand's name, help and handler.

    Arguments go to ``command``'s subparser alone when it names a
    subcommand, else to all four.  argparse builds a help formatter for
    each argument it adds, so ``main`` adds only those of the subcommand
    it runs; help and error text read the same either way.
    """
    parser = _Parser(prog="gmsteady", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for --config

    every = command not in ("region", "solve", "verify", "kernel")

    def subcommand(name, help_text, func):
        """The subparser ``name`` if its arguments are wanted, else None."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p if every or name == command else None

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

    if p := subcommand("region", "classify a parameter lattice", cmd_region):
        add_common(p)
        add_problem(p)
        p.add_argument("--sweep", action="append", default=[],
                       help="name=start:stop:count or name=v1,v2,... (repeatable)")
        p.add_argument("--out-table", help="CSV output path")

    if p := subcommand("solve", "run a coupled solver at one point", cmd_solve):
        add_common(p)
        add_problem(p)
        p.add_argument("--rho-amplitude", type=float, default=None,
                       help="evaluable amplitude in [alpha, beta] (default midpoint)")
        p.add_argument("--radius", type=float, default=None, help="truncation radius")
        p.add_argument("--h0", type=float, default=None,
                       help="initial spacing (needs --radius; default 0.02, 0.008 at zero shifts)")
        p.add_argument("--stretch", type=float, default=None,
                       help="grid stretch factor (needs --radius; default 1.02)")
        p.add_argument("--out-u", help="u field dump path")
        p.add_argument("--out-v", help="v field dump path")

    if p := subcommand("verify", "certify a solution pair", cmd_verify):
        add_common(p)
        add_problem(p)
        p.add_argument("--cor3", action="store_true",
                       help="verify the closed-form supercritical pair")
        p.add_argument("--amplitude", type=float, default=1.0, help="closed-form amplitude A")
        p.add_argument("--radius", type=float, default=None)
        p.add_argument("--nodes", type=int, default=20001)
        p.add_argument("--tol", type=float, default=1e-5,
                       help="max residual for exit code 0")
        p.add_argument("--u-field", help="two-column u dump")
        p.add_argument("--v-field", help="two-column v dump")
        p.add_argument("--u-rate", type=float, default=None, help="declared u decay rate")
        p.add_argument("--v-rate", type=float, default=None, help="declared v decay rate")
        p.add_argument("--rho-amplitude", type=float, default=None)
        p.add_argument("--no-representation", action="store_true",
                       help="skip the integral-representation residuals")

    if p := subcommand("kernel", "tabulate the fundamental solution", cmd_kernel):
        add_common(p)
        p.add_argument("--lam", type=float, default=1.0, help="kernel shift (0 for -Delta)")
        p.add_argument("--r-min", type=float, default=0.01)
        p.add_argument("--r-max", type=float, default=20.0)
        p.add_argument("--r-count", type=int, default=64)
        p.add_argument("--out-table", help="CSV output path")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file flags go first, so the explicit ones after them win
            explicit = argv[argv.index(args.command) + 1:]
            file_tokens = _load_config(args.config, parser.commands[args.command])
            args = parser.parse_args([args.command, *file_tokens, *explicit])
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
    except MemoryError as exc:
        # numpy raises this for an array too large to allocate, such as a
        # huge sweep count or lattice
        return _fail(f"error: out of memory: {str(exc) or 'allocation failed'}")
    except OverflowError as exc:
        # Python float arithmetic raises where numpy would give inf
        return _fail(f"error: float64 overflow: {exc}")


if __name__ == "__main__":
    sys.exit(main())
