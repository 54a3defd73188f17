"""Golden CLI outputs: one small spec per subcommand, byte for byte.

Each tests/golden/<name>.json holds the exact stdout of `lacelab <argv>`
for the spec below.  A refactor must leave every one unchanged.

Regenerate after a deliberate output change with
    PYTHONPATH=src python tests/test_golden.py
and say in CHANGES.md which fixtures moved and why.
"""

import contextlib
import io
import os
import sys

import pytest

from lacelab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

# name -> (argv, exit code)
SPECS = {
    "dist_check_uniform_d2": (
        ["dist-check", "--family", "uniform", "--d", "2", "--L", "2"], 0),
    "rw_beta_nn_d2": (
        ["rw-beta", "--family", "nn", "--d", "2", "--s", "2",
         "--M", "8,16,32"], 0),
    "rw_beta_power_d2": (
        ["rw-beta", "--family", "power", "--alpha", "1.2", "--d", "2",
         "--truncation", "16", "--M", "8", "--s", "3"], 0),
    "beta_table_nn": (
        ["beta-table", "--family", "nn", "--s", "2", "--d-values", "3,4,5",
         "--M", "8"], 0),
    "saw_nn_d2": (
        ["saw", "--family", "nn", "--d", "2", "--nmax", "6", "--z", "0.2"],
        0),
    "perc_with_exact": (
        ["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
         "--R", "1", "--replicas", "200", "--seed", "9"], 0),
    "perc_without_exact": (
        ["perc", "--family", "nn", "--d", "2", "--M", "4", "--z", "0.3",
         "--R", "1", "--replicas", "50", "--seed", "0"], 0),
    "perc_uniform_d2": (
        ["perc", "--family", "uniform", "--d", "2", "--L", "1", "--M", "6",
         "--z", "2.0", "--R", "1.5", "--replicas", "200", "--seed", "3"], 0),
    "ising_d1": (
        ["ising", "--d", "1", "--M", "6", "--z", "0.4", "--sweeps", "1000",
         "--burn-in", "100", "--seed", "2"], 0),
    "ising_d2": (
        ["ising", "--d", "2", "--M", "4", "--z", "0.2", "--sweeps", "600",
         "--burn-in", "100", "--seed", "1"], 0),
    "diag_nn_d2": (
        ["diag", "--family", "nn", "--d", "2", "--M", "8", "--z", "0.5"], 0),
    "infrared_nn_d2": (
        ["infrared", "--family", "nn", "--d", "2", "--M", "8", "--z", "0.3"],
        0),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_output_is_byte_identical(name, monkeypatch):
    monkeypatch.delenv("LACELAB_OUT_DIR", raising=False)
    argv, want_code = SPECS[name]
    code, text = run(argv)
    assert code == want_code
    with open(golden_path(name)) as fh:
        assert text == fh.read()


if __name__ == "__main__":
    os.environ.pop("LACELAB_OUT_DIR", None)
    for name, (argv, want_code) in sorted(SPECS.items()):
        code, text = run(argv)
        if code != want_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, want_code))
        with open(golden_path(name), "w") as fh:
            fh.write(text)
        print("wrote", golden_path(name))
