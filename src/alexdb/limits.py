"""The size guard of the one exhaustive (exponential) check.

Open-set enumeration walks all 2^n subsets of a space, so it refuses spaces
over ``OPEN_SET_GUARD`` elements.  The environment variable
``ALEXDB_SIZE_GUARD`` overrides the bound; it exists so callers with
patience can push the brute-force enumeration past the shipped default.
Every other check, map checking included, is exact at any size and has no
guard.
"""
from __future__ import annotations

import os

from .errors import SizeGuardError

OPEN_SET_GUARD = 20


def check_guard(n: int, default: int, what: str) -> None:
    """Raise SizeGuardError when ``n`` exceeds the active bound for ``what``:
    the override env var, if set, else ``default``."""
    raw = os.environ.get("ALEXDB_SIZE_GUARD")
    try:
        bound = default if raw is None else int(raw)
    except ValueError:
        raise SizeGuardError(f"ALEXDB_SIZE_GUARD must be an integer, got {raw!r}")
    if n > bound:
        raise SizeGuardError(
            f"{what}: input has {n} elements, exceeding the bound {bound} "
            f"(set ALEXDB_SIZE_GUARD to override)"
        )
