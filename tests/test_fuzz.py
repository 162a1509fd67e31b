"""Property-based fuzz of the input files: space descriptors (`model`) and
sequence files (`converge --no-cd`), which reach the model table, and weight
files (`convexity`).

Each drawn file is a valid one with up to three fields replaced by junk.
Whatever the junk, the command must end in an exit code, never in a
traceback or a RuntimeWarning (which the suite's filter makes an error).
"""

import copy
import json
import math
import os
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdknlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

KINDS = ["cosh_n", "sinh_n", "power_n", "cos_n", "glued_cos_n",
         "glued_power_n", "glued_sinh_n", "cauchy", "custom_psi"]

_SPECIAL = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e-300,
    sys.float_info.max, 10 ** 400, -10 ** 400, None, True, False, "x", [],
    {}])
_NUMBER = st.floats() | st.integers(-5000, 5000)
# the special values twice, so that about a third of the junk is one of them
JUNK = st.one_of(_SPECIAL, _SPECIAL, _NUMBER, st.sampled_from(KINDS),
                 st.lists(_SPECIAL | st.floats(-1e4, 1e4), max_size=4))

VALID_DESCRIPTORS = [
    {"kind": "cosh_n", "params": {"K": 1.0, "N": -2.0},
     "truncation_radius": 3.0, "grid_n": 64},
    {"kind": "sinh_n", "params": {"K": 1.0, "N": -2.0},
     "truncation_radius": 2.0, "grid_n": 64},
    {"kind": "power_n", "params": {"N": -2.0}, "domain": [0.0, 2.0],
     "grid_n": 64},
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 64},
    {"kind": "glued_cos_n", "params": {"K": -2.0, "N": -2.0, "J": 3},
     "grid_n": 96},
    {"kind": "glued_power_n", "params": {"N": -2.0},
     "truncation_radius": 2.0, "grid_n": 64},
    {"kind": "glued_sinh_n", "params": {"K": 1.0, "N": -2.0},
     "domain": [-2.0, 2.0], "grid_n": 64, "base_point": 1.0},
    {"kind": "cauchy", "params": {"alpha": 1.0}, "truncation_radius": 4.0,
     "grid_n": 64, "regularity_k": 0},
    {"kind": "custom_psi", "domain": [0.0, 1.0],
     "psi_samples": [0.0, 0.5, 1.0, 0.5]},
]
# fields every kind may carry; a junk truncation_radius next to a domain or
# on a cos kind must be ignored
_OPTIONAL_FIELDS = ("truncation_radius", "base_point", "regularity_k")

# grid_n stays at or below 64 in every sequence file, so that each LP stays
# small
VALID_SEQUENCES = [
    {"family": "truncated_power", "N": -2.0, "R": 2.0, "grid_n": 64,
     "n_range": [1, 2], "k_range": [0, 1]},
    {"family": "glued_drift", "K": -2.0, "N": -2.0, "delta": 0.5,
     "grid_n": 64, "n_range": [1, 2], "k_range": [0, 1]},
    {"family": "custom_list", "n_range": [0, 0], "k_range": [0, 1],
     "spaces": [VALID_DESCRIPTORS[2]], "limit": VALID_DESCRIPTORS[2]},
]
_SEQUENCE_JUNK = {
    "grid_n": _SPECIAL | st.integers(-64, 64),
    "n_range": JUNK | st.lists(st.integers(-3, 4), max_size=3),
    "k_range": JUNK | st.lists(st.integers(-3, 4), max_size=3),
}

VALID_PSI_FILES = [
    {"x": [0.0, 0.5, 1.0], "psi": [0.0, 0.0, 0.0]},
    {"x": [0.0, 0.25, 0.5, 0.75, 1.0], "psi": [0.0, -0.5, -1.0, -0.5, 0.0]},
    {"x": [0.0, 1.0, 2.0, 3.0], "psi": [1.0, -math.inf, 0.5, 2.0]},
    {"x": [0.0, 1.0, 1.0, 1.0, 2.0, 2.0], "psi": [0.0, 0.5, -0.5, 0.0, 1.0, 0.0]},
    {"x": [-1e300, 0.0, 5e299, 1e300], "psi": [0.0, 1.0, 0.0, -1.0]},
]

_FUZZ = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _junked(draw, valid, junk_for=None, optional=()):
    """A file from `valid` with one to three of its fields (or of `optional`)
    set to junk; a "params.X" field is X inside the params object."""
    d = copy.deepcopy(draw(st.sampled_from(valid)))
    fields = sorted({*d, *optional, *("params." + k for k in d.get("params", ()))})
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(fields))
        value = copy.deepcopy(draw((junk_for or {}).get(field, JUNK)))
        if field.startswith("params."):
            if isinstance(d.get("params"), dict):
                d["params"][field[len("params."):]] = value
        else:
            d[field] = value
    return d


def _run(argv_of, content) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        return main(argv_of(path, os.path.join(tmp, "out.csv")))


@settings(_FUZZ, max_examples=800)
@given(_junked(VALID_DESCRIPTORS, optional=_OPTIONAL_FIELDS))
def test_fuzzed_descriptors_exit_cleanly(desc):
    rc = _run(lambda p, out: ["model", "--space", p, "--detect-singular",
                              "--out", out], desc)
    assert rc in (EXIT_OK, EXIT_USAGE)


@settings(_FUZZ, max_examples=500)
@given(_junked(VALID_SEQUENCES, _SEQUENCE_JUNK))
def test_fuzzed_sequence_files_exit_cleanly(seq):
    rc = _run(lambda p, out: ["converge", "--seq", p, "--no-cd", "--seed",
                              "0", "--out", out], seq)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION)


def _blows_up(psi) -> bool:
    """Whether a psi list holds a NaN or a +inf, where e^(-psi/N) is
    undefined or infinite."""
    return isinstance(psi, list) and any(
        isinstance(v, float) and (math.isnan(v) or v == math.inf) for v in psi)


@settings(_FUZZ, max_examples=300)
@given(_junked(VALID_PSI_FILES), st.sampled_from(["0", "1", "-1"]))
def test_fuzzed_psi_files_exit_cleanly(psi_file, K):
    rc = _run(lambda p, out: ["convexity", "--psi", p, "--K", K, "--N", "-2",
                              "--out", out], psi_file)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION)
    if _blows_up(psi_file["psi"]):
        assert rc == EXIT_USAGE
