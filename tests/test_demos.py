"""Every script in demos/ runs to completion without a traceback and prints
the same bytes as before: its stdout's sha256 is pinned here."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, which is deterministic
DIGESTS = {
    "blowup_classes.py": "669f34910cda330a8d5563327ab66de5e4e99cb27e556544bdaf9330658d87e8",
    "obstruction_certificate.py": "be49f456f8196c4835afa33a869de820e64be84c650ac726ab904f297d77bcd5",
    "point_line_census.py": "dc98de0e38d6e1e9fd1455bf04335f61f349211eebc89957b0916eff9360bf75",
    "search_audit.py": "3c761a19215f62c6bbb470dedea2423eae41b92d748b0e983cd1dca6e0ad7734",
}


def test_demos_found():
    # every demo has its digest pinned
    assert [demo.name for demo in DEMOS] == sorted(DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=60
    )
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo.name]
