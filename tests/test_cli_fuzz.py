"""Property fuzz of the command line: random flags, values and config files.

Every input must end in a documented exit code with no traceback, and a
failing run must end its stderr with one reason line.  Only cheap runs
are drawn: region sweeps of at most 27 points, kernel tables of at most
12 rows, cor3 on at most 40 nodes, verify runs whose dumps are missing
or do not parse, and solve runs that end at the solver call: ``solve``
starts from the README's certified point, builds the grid its
--radius/--h0/--stretch ask for (the builder caps the node count), and
a stand-in solver ends the run there.  ``verify`` on dumped fields reads
the README worked points' solved fields with up to two drawn defects
(scaled radii or values, too few rows, unsorted or repeated nodes,
u = v, one value times 1e300), and must also end without a warning.
"""

import contextlib
import functools
import io
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import HealthCheck, given, reject, settings, strategies as st

from gmsteady import cli, solvers
from gmsteady.barriers import classify
from gmsteady.radial_core import MAX_GRID_NODES

_NUMBER = (
    st.sampled_from(["0", "1", "-1", "2", "3", "5", "0.5", "1.5", "16", "4096", "1e-300",
                     "1e300", "-1e300", "5e-324", "nan", "inf", "-inf"])
    | st.floats().map(repr)
    | st.integers(-3, 12).map(str)
)
_COUNT = st.integers(-2, 12).map(str)
_PATH = st.sampled_from(["out.json", "1", "2", "-", "", "sub/out.json", "fuzz.conf"])
# grid flags: a large radius over a small h0 asks for more nodes than the cap
_RADIUS = st.sampled_from(["1e10", "1e4", "30", "1e300", "0", "-1", "inf", "nan"])
_H0 = st.sampled_from(["1e-300", "1e-6", "0.02", "5e-324", "1", "0", "nan"])
_STRETCH = st.sampled_from(["1", "1.02", "1.0000001", "0.5", "inf"])
_SWEEP = st.builds(
    lambda name, a, b, count: f"{name}={a}:{b}:{count}",
    st.sampled_from(["p", "q", "m", "s", "lam", "mu", "alpha", "beta", "rate", "bogus"]),
    st.sampled_from(["-1", "0", "0.5", "1.1", "3", "1e300", "nan"]),
    st.sampled_from(["0", "2", "6", "1e308", "inf"]),
    st.sampled_from(["0", "1", "3", "-2", "x"]),
) | st.builds(
    lambda name, vals: f"{name}={','.join(vals)}",
    st.sampled_from(["p", "rate", "lam"]),
    st.lists(st.sampled_from(["1.5", "3", "-1", "nan", "1e300", ""]), max_size=3),
)
_JUNK = st.sampled_from(["x", "", "-", "--", "true", "p=", "-x", "1,2"])
_KIND = {
    "--rho": st.sampled_from(["zero", "exp", "alg"]),
    "--sweep": _SWEEP,
    "--r-count": _COUNT, "--dimension": _COUNT, "--nodes": st.integers(14, 40).map(str),
    "--report": _PATH, "--out-table": _PATH, "--out-u": _PATH, "--out-v": _PATH,
    "--u-field": _PATH, "--v-field": _PATH, "--config": _PATH,
    "--radius": _RADIUS, "--h0": _H0, "--stretch": _STRETCH,
}
# long flags of each subcommand, mapped to whether the flag is a switch
_COMMAND_FLAGS = {
    name: {flag: action.nargs == 0 for flag, action in parser._option_string_actions.items()
           if flag.startswith("--") and flag != "--help"}
    for name, parser in cli.build_parser().commands.items()
}
_BASES = {"region": [], "kernel": ["--r-count", "8"], "cor3": ["--nodes", "17"], "verify": [],
          "solve": ["-N", "3", "--lam", "4096", "--mu", "16", "--p", "2", "--q", "1", "--m", "1",
                    "--s", "0", "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
                    "--rho-amplitude", "1.5"]}
_EXTRA_SWITCHES = ["--force", "-h", "--version"]
_EXTRA_FLAGS = ["--bogus", "-N"]


def _value(flag):
    good = _KIND.get(flag, _NUMBER)
    return st.integers(0, 9).flatmap(lambda k: _JUNK if k == 0 else good)


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(sorted(_BASES)))
    flags = _COMMAND_FLAGS[command]
    pool = sorted(flags) + _EXTRA_SWITCHES + _EXTRA_FLAGS

    def pairs(max_size):
        out = []
        for flag in draw(st.lists(st.sampled_from(pool), max_size=max_size)):
            switch = flags.get(flag, flag in _EXTRA_SWITCHES)
            out.append((flag, None if switch else draw(_value(flag))))
        return out

    # fewer random solve flags keep more runs certified; grid flags on half of them
    explicit = pairs(3 if command == "solve" else 6)
    if command == "solve":
        for flag in ("--radius", "--h0", "--stretch"):
            if draw(st.booleans()):
                explicit.append((flag, draw(_KIND[flag])))
    config = None
    if draw(st.booleans()):
        lines = []
        for flag, value in pairs(5):
            key = flag.lstrip("-")
            if draw(st.booleans()):
                key = key.replace("-", "_")
            if value is None:
                value = draw(st.sampled_from(["true", "yes", "1", "false", "NO", "0", "maybe"]))
            lines.append(f"{key} = {value}")
        extra = st.sampled_from(["# comment", "", "no equals sign", "= 4", "func = x",
                                 "command = solve", "lam = 1 # trailing comment"])
        lines += draw(st.lists(extra, max_size=2))
        config = draw(st.permutations(lines))
    return command, explicit, config


def _sweep_points(specs):
    """Upper bound on the lattice size that the sweep specs can request."""
    points = 1
    for spec in specs:
        count = spec.rsplit(":", 1)[-1] if ":" in spec else str(spec.count(",") + 1)
        points *= max(1, int(count)) if count.lstrip("-").isdigit() else 1
    return points


class _ReachedSolver(Exception):
    pass


def _stand_in_solver(problem, exponents, ledger, grid=None):
    assert grid is None or grid.n <= MAX_GRID_NODES
    raise _ReachedSolver


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_runs())
def test_cli_exit_codes_and_reasons(run):
    command, explicit, config = run
    args = [command, *_BASES[command]]
    for flag, value in explicit:
        args += [flag] if value is None else [flag, value]
    sweeps = [value for flag, value in explicit if flag == "--sweep"]
    sweeps += [line.split("=", 1)[1] for line in config or () if line.startswith("sweep")]
    if _sweep_points(sweeps) > 27:
        reject()

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            with open(os.path.join(tmp, "fuzz.conf"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            args += ["--config", "fuzz.conf"]
        os.chdir(tmp)
        try:
            # cmd_solve looks the solvers up on their module when it runs
            with mock.patch.object(solvers, "solve_coupled_exp", _stand_in_solver), \
                    mock.patch.object(solvers, "solve_coupled_alg", _stand_in_solver), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(args)
        except _ReachedSolver:
            return  # certified, and its grid was built within the cap
        finally:
            os.chdir(cwd)

    text = err.getvalue()
    assert rc in (0, 1, 2, 3), (args, config, rc, text)
    assert "Traceback" not in text, (args, config, text)
    if rc != 0:
        last = (text.strip().splitlines() or [""])[-1]
        reasons = ("error:", "refused:", "parse error:") + (("unconverged:",) if rc == 3 else ())
        assert last.startswith(reasons), (args, config, text)


# verify on dumped fields: the README worked points, each with its decay rates
_VERIFY_POINTS = {
    "exp": ["-N", "3", "--lam", "4096", "--mu", "16", "--p", "2", "--q", "1", "--m", "1",
            "--s", "0", "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
            "--rho-amplitude", "1.5", "--u-rate", "1", "--v-rate", "1"],
    "alg": ["-N", "5", "--p", "5", "--q", "2", "--m", "2", "--s", "1", "--rho", "alg",
            "--alpha", "0.01", "--beta", "0.015", "--rate", "4", "--rho-amplitude", "0.0125",
            "--u-rate", "2", "--v-rate", "1"],
}
_DEFECTS = ["radii", "values", "few-rows", "unsorted", "repeated", "u=v", "one-1e300"]


@functools.cache
def _solved_rows(point):
    """(r, u, v) of the worked point's default solve, as lists of floats."""
    args = cli.build_parser().parse_args(["solve", *_VERIFY_POINTS[point][:-4]])
    problem, exponents = cli._problem_from_args(args)
    solve = solvers.solve_coupled_exp if problem.lam > 0 else solvers.solve_coupled_alg
    rep = solve(problem, exponents, classify(problem, exponents).ledger)
    return rep.u.grid.nodes.tolist(), rep.u.values.tolist(), rep.v.values.tolist()


@st.composite
def _dumps(draw):
    """(point, u rows, v rows, extra flags): a worked point's solved dumps with defects drawn."""
    point = draw(st.sampled_from(sorted(_VERIFY_POINTS)))
    r, u_vals, v_vals = _solved_rows(point)
    u, v = [[x, y] for x, y in zip(r, u_vals)], [[x, y] for x, y in zip(r, v_vals)]
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2, unique=True)):
        rows = draw(st.sampled_from([u, v]))
        k = draw(st.integers(0, len(rows) - 1))
        if defect == "radii":  # scaled radii, past the float range at the ends
            factor = draw(st.sampled_from([1e-300, 1e-5, 1.5, 1e5, 1e200]))
            for row in (*u, *v):
                row[0] *= factor
        elif defect == "values":  # scaled values, down to subnormal
            scale = draw(st.sampled_from([1e-5, 1e-300, 1e-310, 5e-324, 1e300]))
            for row in rows:
                row[1] *= scale
        elif defect == "few-rows":
            del rows[draw(st.integers(1, 15)):]
        elif defect == "unsorted":
            rows[k][0], rows[-1 - k][0] = rows[-1 - k][0], rows[k][0]
        elif defect == "repeated":
            rows.insert(k, list(rows[k]))
        elif defect == "u=v":
            v[:] = [list(row) for row in u]
        else:
            rows[k][1] *= 1e300
    flags = ["--no-representation"] if draw(st.booleans()) else []
    return point, u, v, flags


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dumps())
def test_verify_dumped_fields_exit_codes_and_reasons(dumps):
    point, u, v, flags = dumps
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, rows in (("u", u), ("v", v)):
            paths[name] = os.path.join(tmp, f"{name}.txt")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("# r value\n" + "".join(f"{r!r} {value!r}\n" for r, value in rows))
        # the rates are read by the representation checks alone
        point_flags = _VERIFY_POINTS[point][:-4] if flags else _VERIFY_POINTS[point]
        args = ["verify", *point_flags, "--u-field", paths["u"],
                "--v-field", paths["v"], "--tol", "1e-4", *flags,
                "--report", os.path.join(tmp, "r.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(args)
    text = err.getvalue()
    assert caught == [], (args, [str(w.message) for w in caught])
    assert rc in (0, 1, 2, 3), (args, rc, text)
    lines = text.strip().splitlines()
    if rc == 0:
        assert lines == [], (args, text)
    else:
        reasons = ("error:", "refused:", "parse error:") + (("unconverged:",) if rc == 3 else ())
        assert len(lines) == 1 and lines[0].startswith(reasons), (args, u, v, text)
