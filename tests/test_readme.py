"""The CLI examples of README.md, run as written.

The ``sh`` blocks of the README's ``## CLI`` section run in order in one
directory, each command in a fresh interpreter with warnings as errors.
The section's config examples (plain blocks whose first line is
``# <file name>``) are written there first.  ``gmsteady`` runs as
``python -m gmsteady.cli``, its documented equivalent, so no installed
console script is needed.  The tests check what the README says these
commands produce.
"""

import csv
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from gmsteady.barriers import classify
from gmsteady.cli import _problem_from_args, build_parser

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cli_examples():
    """(commands, files) of the README's CLI section: each command as its
    argv, in order, and each config example as file name -> text."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands, files = [], {}
    for block in section.split("```")[1::2]:
        info, _, body = block.partition("\n")
        if info == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.strip() and not line.lstrip().startswith("#"):
                    commands.append(shlex.split(line))
        elif body.startswith("# "):
            files[body.partition("\n")[0][2:].strip()] = body
    return commands, files


_COMMANDS, _FILES = _cli_examples()


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The directory the commands ran in, and each command's finished process."""
    path = tmp_path_factory.mktemp("readme")
    for name, text in _FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    src = str(_ROOT / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return path, [subprocess.run([sys.executable, "-m", "gmsteady.cli", *argv[1:]], env=env,
                                 cwd=path, capture_output=True, text=True, timeout=120)
                  for argv in _COMMANDS]


def _parsed(command):
    """The parsed flags of each README command running ``command``."""
    return [build_parser().parse_args(argv[1:]) for argv in _COMMANDS if argv[1] == command]


def _report(path, name):
    return json.loads((path / name).read_text(encoding="utf-8"))


def test_readme_names_the_config_file_and_every_subcommand():
    assert "point.conf" in _FILES
    assert {argv[1] for argv in _COMMANDS} == {"kernel", "region", "solve", "verify", "cor3"}


def test_every_readme_command_exits_0(readme_run):
    _, procs = readme_run
    for argv, proc in zip(_COMMANDS, procs):
        assert argv[0] == "gmsteady", argv
        assert proc.returncode == 0, (shlex.join(argv), proc.stderr)


def test_tables_are_csv_writer_bytes_with_a_row_per_point(readme_run):
    # tables are written in blocks of rows, so one that lost its last block
    # still reads as csv: each is counted against its report
    path, _ = readme_run
    for args in [*_parsed("kernel"), *_parsed("region")]:
        with open(path / args.out_table, newline="", encoding="utf-8") as fh:
            text = fh.read()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        out = io.StringIO(newline="")
        csv.writer(out).writerows(rows)
        assert out.getvalue() == text, args.out_table
        key = "rows" if args.command == "kernel" else "points"
        assert len(rows) - 1 == _report(path, args.report)[key], args.out_table


def test_region_rows_match_scalar_classify(readme_run):
    # each row is classify's verdict at the point its flags and swept values give
    path, _ = readme_run
    for args in _parsed("region"):
        with open(path / args.out_table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            swept = {key: float(row[key]) for key in row if key not in ("index", "status", "tag")}
            verdict = classify(*_problem_from_args(args, **swept))
            assert (row["status"], row["tag"]) == (verdict.status.value, verdict.tag or ""), row


def test_zero_shift_rate_sweep_reads_as_the_readme_says(readme_run):
    # 6 Theorem 1.4(i) rows (a <= 3), 12 Theorem 1.4(ii) rows, among them
    # a = 4, the zero-shift worked case's rate, and 8 unknown rows
    path, _ = readme_run
    assert _report(path, "alg-region.json")["counts"] == {
        "nonexistence:Theorem 1.4(i)": 6, "existence-guaranteed:Theorem 1.4(ii)": 12,
        "unknown": 8}
    with open(path / "alg-region.csv", newline="", encoding="utf-8") as fh:
        rows = {row["rate"]: (row["status"], row["tag"]) for row in csv.DictReader(fh)}
    assert rows["4.0"] == ("existence-guaranteed", "Theorem 1.4(ii)")


def test_float_range_sweep_certifies_66_points_and_leaves_34_unknown(readme_run):
    path, _ = readme_run
    assert _report(path, "float-range.json")["counts"] == {
        "existence-guaranteed:Theorem 1.1(iii)": 66, "unknown": 34}


def test_config_solve_reports_what_the_flags_only_solve_reports(readme_run):
    path, _ = readme_run
    flags, config = _report(path, "solve.json"), _report(path, "point.json")
    flags.pop("timestamp"), config.pop("timestamp")
    assert config == flags
