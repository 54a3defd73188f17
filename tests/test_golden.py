"""Golden CLI outputs: one small spec per subcommand, byte for byte.

Each tests/golden/<name>.json holds the exact stdout of `lacelab <argv>`
for the spec below.  A refactor must leave every one unchanged.

Regenerate after a deliberate output change with
    PYTHONPATH=src python tests/test_golden.py
and say in CHANGES.md which fixtures moved and why.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from lacelab import saw
from lacelab.cli import build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

# name -> (argv, exit code)
SPECS = {
    "dist_check_uniform_d2": (
        ["dist-check", "--family", "uniform", "--d", "2", "--L", "2"], 0),
    "rw_beta_nn_d2": (
        ["rw-beta", "--family", "nn", "--d", "2", "--s", "2",
         "--M", "8,16,32"], 0),
    # the largest orthant of the suite: 17^5 entries at M = 32
    "rw_beta_nn_d5": (
        ["rw-beta", "--family", "nn", "--d", "5", "--s", "2",
         "--M", "8,16,32"], 0),
    # the s = 3 (triangle) condition on a closed form with L > 1
    "rw_beta_uniform_d3": (
        ["rw-beta", "--family", "uniform", "--L", "2", "--d", "3", "--s", "3",
         "--M", "8,16,32"], 0),
    # the chamber at d = 6, for each combine ufunc
    "rw_beta_nn_d6": (
        ["rw-beta", "--family", "nn", "--d", "6", "--s", "2",
         "--M", "4,8,16"], 0),
    "rw_beta_uniform_d4": (
        ["rw-beta", "--family", "uniform", "--L", "2", "--d", "4", "--s", "3",
         "--M", "4,8,16"], 0),
    "rw_beta_power_d2": (
        ["rw-beta", "--family", "power", "--alpha", "1.2", "--d", "2",
         "--truncation", "16", "--M", "8", "--s", "3"], 0),
    "beta_table_nn": (
        ["beta-table", "--family", "nn", "--s", "2", "--d-values", "3,4,5",
         "--M", "8"], 0),
    "saw_nn_d2": (
        ["saw", "--family", "nn", "--d", "2", "--nmax", "6", "--z", "0.2"],
        0),
    "saw_nn_d3_double": (
        ["saw", "--family", "nn", "--d", "3", "--nmax", "5", "--mode",
         "double"], 0),
    "saw_uniform_d2": (
        ["saw", "--family", "uniform", "--d", "2", "--L", "1", "--nmax", "5"],
        0),
    # nonzero z: bubble sums G_z(x)^2 in c_n's key order
    "saw_nn_d3": (
        ["saw", "--family", "nn", "--d", "3", "--nmax", "8", "--z", "0.12"],
        0),
    # 8 of the 24 steps kept, each of weight 1/24
    "saw_uniform_d2_radius": (
        ["saw", "--family", "uniform", "--d", "2", "--L", "2", "--nmax", "4",
         "--support-radius", "1.5", "--z", "0.1"], 0),
    # unequal float weights: first-reached key order, float sums in search
    # order and double-mode pi_masses
    "saw_power_d2_double": (
        ["saw", "--family", "power", "--alpha", "1.2", "--d", "2",
         "--truncation", "16", "--support-radius", "2.5", "--mode", "double",
         "--nmax", "4", "--z", "0.1"], 0),
    "perc_with_exact": (
        ["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
         "--R", "1", "--replicas", "200", "--seed", "9"], 0),
    "perc_without_exact": (
        ["perc", "--family", "nn", "--d", "2", "--M", "4", "--z", "0.3",
         "--R", "1", "--replicas", "50", "--seed", "0"], 0),
    "perc_uniform_d2": (
        ["perc", "--family", "uniform", "--d", "2", "--L", "1", "--M", "6",
         "--z", "2.0", "--R", "1.5", "--replicas", "200", "--seed", "3"], 0),
    # fires both the half-period warning and the clip warning
    "perc_uniform_d2_clipped": (
        ["perc", "--family", "uniform", "--d", "2", "--L", "2", "--M", "4",
         "--z", "14", "--R", "3", "--replicas", "200", "--seed", "4"], 0),
    "ising_d1": (
        ["ising", "--d", "1", "--M", "6", "--z", "0.4", "--sweeps", "1000",
         "--burn-in", "100", "--seed", "2"], 0),
    "ising_d2": (
        ["ising", "--d", "2", "--M", "4", "--z", "0.2", "--sweeps", "600",
         "--burn-in", "100", "--seed", "1"], 0),
    # six neighbours per site
    "ising_d3": (
        ["ising", "--d", "3", "--M", "4", "--z", "0.15", "--sweeps", "300",
         "--burn-in", "50", "--seed", "3"], 0),
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


@pytest.mark.parametrize("name", sorted(n for n in SPECS
                                        if n.startswith("saw_")))
def test_saw_builds_no_x_tuple_view(name, monkeypatch):
    # lacelab saw reads the levels and P_m on flat keys; c_n and pi_m as
    # dicts of x-tuples are built only for a caller that reads them
    def unread(self):
        raise AssertionError("an x-tuple view was built")

    monkeypatch.setattr(saw.WalkSeries, "c", property(unread))
    monkeypatch.setattr(saw.LaceCoefficients, "pi", property(unread))
    monkeypatch.delenv("LACELAB_OUT_DIR", raising=False)
    argv, want_code = SPECS[name]
    code, text = run(argv)
    assert code == want_code
    with open(golden_path(name)) as fh:
        assert text == fh.read()


# Parsed options that change no result, so a spec may leave them out: the
# subcommand is the document's own key, fn is its handler, out and csv name
# output files, and assert_free sets only the exit code.
UNREAD_OPTIONS = {"subcommand", "fn", "out", "csv", "assert_free"}
# Step options a family does not read, and beta-table's sweep options that
# it refuses for a family.
FOREIGN_OPTIONS = {"nn": {"L", "alpha", "truncation"},
                   "uniform": {"alpha", "truncation"},
                   "power": set(), None: set()}
BETA_TABLE_FOREIGN = {"nn": {"d", "L_values", "alpha"},
                      "uniform": {"d_values", "alpha"},
                      "power": {"d_values"}}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_spec_records_every_option_that_changes_the_result(name):
    argv, _ = SPECS[name]
    args = vars(build_parser().parse_args(argv))
    with open(golden_path(name)) as fh:
        doc = json.load(fh)
    # beta-table records its sweep options in a nested dict
    recorded = {"seed"}.union(doc["spec"], *(
        v for v in doc["spec"].values() if isinstance(v, dict)))
    family = args.get("family")
    foreign = (BETA_TABLE_FOREIGN[family] if args["subcommand"] == "beta-table"
               else FOREIGN_OPTIONS[family])
    # diag without --input builds the free two-point function
    unread = UNREAD_OPTIONS | ({"input"} if args.get("input") is None
                               else set())
    assert set(args) - recorded - unread - foreign == set()


if __name__ == "__main__":
    os.environ.pop("LACELAB_OUT_DIR", None)
    for name, (argv, want_code) in sorted(SPECS.items()):
        code, text = run(argv)
        if code != want_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, want_code))
        with open(golden_path(name), "w") as fh:
            fh.write(text)
        print("wrote", golden_path(name))
