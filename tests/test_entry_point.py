"""The `nonlift` command as a user runs it: one process per command line.

By default each test runs `python -m nonlift.cli` with the source tree's
`src` on PYTHONPATH.  With NONLIFT_ENTRY=installed it runs the installed
`nonlift` script instead, from a directory outside the source tree, with
PYTHONPATH unset; the reader checks then use the installed package, which
`test_reader_is_the_commands_package` makes sure of.  Run that mode after
`pip install .` with

    NONLIFT_ENTRY=installed python -m pytest tests/test_entry_point.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import nonlift
from nonlift import InvalidParameterError, certificate_parse

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTALLED = os.environ.get("NONLIFT_ENTRY") == "installed"


def _command():
    """The argv prefix and environment of one `nonlift` command line."""
    env = dict(os.environ)
    if INSTALLED:
        env.pop("PYTHONPATH", None)
        script = shutil.which("nonlift")
        assert script, "NONLIFT_ENTRY=installed, but no nonlift script is on PATH"
        return [script], env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "nonlift.cli"], env


@pytest.fixture
def run(tmp_path):
    """Run `nonlift ARGS...` from a directory outside the source tree."""
    prefix, env = _command()

    def nonlift_run(*args):
        return subprocess.run([*prefix, *args], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    return nonlift_run


def test_reader_is_the_commands_package():
    in_tree = pathlib.Path(nonlift.__file__).resolve().is_relative_to(ROOT / "src")
    assert in_tree != INSTALLED, nonlift.__file__


def test_import_loads_no_dataclasses_or_inspect(tmp_path):
    # every command pays for what importing the CLI loads; `site` may
    # preload modules, so only the ones the import adds are checked
    code = ("import sys; before = set(sys.modules); import nonlift.cli; "
            "print(nonlift.cli.__file__); print(*sorted(set(sys.modules) - before))")
    _, env = _command()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, added = proc.stdout.splitlines()
    assert pathlib.Path(where).resolve().is_relative_to(ROOT / "src") != INSTALLED, where
    added = set(added.split())
    assert "nonlift.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


# the whole stdout of a command that exits 0
OUTPUTS = {
    "geom count --dim 2 --p 2": "points: 7, lines: 7",
    # the point-line-plane incidence of P^3, line-in-plane pairs included
    "geom config --dim 3 --p 3": "points: 40, lines: 130, planes: 40, inclusions: 1560",
    "motive ps --dim 2": (
        "name: P^2\ndimension: 2\nclass: 1 + L + L^2\ncoefficients: 1, 1, 1\nPicard number: 1"
    ),
    # the per-line collinearity check at the PLANE_P_MAX cap over F_13[t]/(t^8)
    "lift check --p 13 --ring fpt:8": "violations: 0",
}


@pytest.mark.parametrize("command", OUTPUTS)
def test_output(run, command):
    proc = run(*command.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, OUTPUTS[command] + "\n", "")


@pytest.mark.parametrize("command", ["--help", "motive --help"])
def test_help(run, command):
    proc = run(*command.split())
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"usage: nonlift {command.removesuffix('--help')}")


# (command, exit code, first stdout lines); exit 2 certifies non-liftable
FIRST_LINES = [
    ("lift propagate --p 2 --ring zpk:2", 2, ["lift propagation certificate"]),
    ("lift propagate --p 2 --ring fpt:2", 0, ["lift propagation certificate"]),
    # the verdicts at the sizes the certify benchmark runs
    ("lift propagate --p 887 --ring zpk:3", 2, ["lift propagation certificate", "p: 887"]),
    ("lift brute --p 2 --ring fpt:2", 0, ["maps found: 1", "nodes explored: 12"]),
    # the per-line collinearity check at the PLANE_P_MAX cap over Z/169
    ("lift check --p 13", 0, ["violations: 47226"]),
]


@pytest.mark.parametrize("command, code, first", FIRST_LINES, ids=[c for c, _, _ in FIRST_LINES])
def test_exit_code_and_first_lines(run, command, code, first):
    proc = run(*command.split())
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[: len(first)] == first


def test_open_verdict_at_certify_size(run):
    proc = run("lift", "propagate", "--p", "499", "--ring", "fpt:3")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "no obstruction"


def test_certificate_layout_and_reader(run):
    proc = run("lift", "propagate", "--p", "499", "--ring", "fpt:3", "--format", "json")
    assert proc.returncode == 0
    # the project's JSON writer keeps the stdlib's indent-2 layout
    doc = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(doc, indent=2) + "\n"
    # the reader accepts the certificate and refuses it with its last step removed
    assert certificate_parse(doc)[1].verdict == "liftable-not-excluded"
    with pytest.raises(InvalidParameterError):
        certificate_parse(dict(doc, steps=doc["steps"][:-1]))


def test_reader_at_certify_size(run):
    # the reader re-runs the forced chain at the certify benchmark's largest size
    proc = run("lift", "propagate", "--p", "887", "--ring", "zpk:3", "--format", "json")
    assert proc.returncode == 2
    _, obstruction = certificate_parse(proc.stdout)
    assert obstruction.verdict == "non-liftable"
    assert len(json.loads(proc.stdout)["steps"]) == 1774


def test_closed_pipe_gives_no_traceback(tmp_path):
    # the 588 KB certificate is more than a pipe buffer, so the write after
    # the reader hangs up always fails
    prefix, env = _command()
    with subprocess.Popen(
        [*prefix, "lift", "propagate", "--p", "877", "--ring", "zpk:2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err, err
