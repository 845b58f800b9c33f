"""The whole CLI chain on two small configs reproduces ``tests/golden/golden.json``,
so a change that moves any checkpoint, report row or prune-sweep figure fails
here. ``tests/golden/regenerate.py`` writes the file (see its docstring).

Exact mode compares bytes: SHA-256 of every checkpoint and of
``prune_sweep.json``, and report rows without ``timestamp``. It runs where
numpy's version, its BLAS and numpy's CPU features match the golden file's.
Elsewhere the last bits may differ, so tolerance mode compares the decoded
parameters, report rows and prune-sweep figures within RTOL and ATOL, and
other values exactly. ``pytest -s`` prints which mode ran.
"""

import base64
import json
import math

import numpy as np
import pytest

from golden.regenerate import CONFIGS, GOLDEN, environment, run_chain

RTOL, ATOL = 1e-6, 1e-9

GOLDEN_DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))
EXACT = environment() == GOLDEN_DATA["environment"]


def close(got, want) -> bool:
    """Equal, where floats need only lie within RTOL or ATOL of each other."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    return got == want


def params(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f8")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_chain_matches_golden(name, tmp_path):
    got, want = run_chain(name, tmp_path), GOLDEN_DATA["configs"][name]
    print(f"golden {name}: {'exact' if EXACT else 'tolerance'} mode")
    assert sorted(got["files"]) == sorted(want["files"])
    if EXACT:
        assert got == want
        return
    for file, blob in want["params"].items():
        np.testing.assert_allclose(params(got["params"][file]), params(blob),
                                   rtol=RTOL, atol=ATOL, err_msg=file)
    assert close(got["report"], want["report"])
    assert close(got["sweep"], want["sweep"])
