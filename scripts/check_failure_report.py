#!/usr/bin/env python3
"""Check that a failing hypothesis test reports its falsifying example.

The repository's pytest settings turn warnings into errors.  A warning
raised inside a pytest plugin while it reports a failure would then be
printed as a pytest ``INTERNALERROR`` in place of the failure report.  This
script writes a deliberately failing ``@given`` test into a temporary
directory beside a copy of ``pyproject.toml``, runs pytest there, and
exits non-zero unless the output shows ``Falsifying example`` and no
``INTERNALERROR``.

Run it from anywhere: ``python scripts/check_failure_report.py``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TEST = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / "test_fails.py").write_text(FAILING_TEST)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
            cwd=tmp,
            capture_output=True,
            text=True,
        )
    output = run.stdout + run.stderr
    print(output)
    if run.returncode == 0:
        print("the deliberately failing test passed", file=sys.stderr)
        return 1
    if "INTERNALERROR" in output or "Falsifying example" not in output:
        print("the failure was not reported with its falsifying example", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
