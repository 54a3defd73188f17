import json
import re

import numpy as np
import pytest

from lacelab.cli import _jsonify, main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_dist_check_uniform_passes(capsys):
    code, doc = run_cli(capsys, ["dist-check", "--family", "uniform",
                                 "--d", "2", "--L", "2"])
    assert code == 0
    assert doc["result"]["ok"]
    assert doc["subcommand"] == "dist-check"


def test_dist_check_nn_fails_bipartite_bound(capsys):
    code, doc = run_cli(capsys, ["dist-check", "--family", "nn", "--d", "2"])
    assert code == 2  # condition check failed, report still emitted
    assert doc["result"]["ok"] is False


def test_rw_beta_divergent_low_dimension(capsys):
    code, doc = run_cli(capsys, ["rw-beta", "--family", "nn", "--d", "1",
                                 "--s", "2", "--M", "8,16,32"])
    assert code == 0
    assert doc["result"]["divergent"] is True
    assert doc["result"]["consistency_error"] < 1e-9


def test_beta_table_with_csv(tmp_path, capsys):
    out = tmp_path / "table.json"
    csv_path = tmp_path / "table.csv"
    code = main(["beta-table", "--family", "nn", "--s", "2",
                 "--d-values", "9,10", "--M", "8",
                 "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["result"]["rows"]) == 2
    assert (tmp_path / "table.json.meta.json").exists()
    header = csv_path.read_text().splitlines()[0]
    assert "beta" in header and "scaled" in header


def test_saw_subcommand(capsys):
    code, doc = run_cli(capsys, ["saw", "--family", "nn", "--d", "2",
                                 "--nmax", "5", "--z", "0.3"])
    assert code == 0
    masses = doc["result"]["masses"]
    assert masses[1] == pytest.approx(1.0)  # 4 walks * (1/4)
    assert doc["result"]["pi_masses"]["2"] == pytest.approx(-0.25)


def test_perc_subcommand_checks_exact(capsys):
    code, doc = run_cli(capsys, ["perc", "--family", "nn", "--d", "1",
                                 "--M", "6", "--z", "0.8", "--R", "1",
                                 "--replicas", "4000", "--seed", "3"])
    assert code == 0
    assert doc["result"]["within_4se"] is True
    assert doc["seed"] == 3


def test_perc_skips_exact_above_bond_limit(capsys):
    # the 4x4 torus has 32 nearest-neighbour bonds, above the exact limit
    code, doc = run_cli(capsys, ["perc", "--family", "nn", "--d", "2",
                                 "--M", "4", "--z", "0.3", "--R", "1",
                                 "--replicas", "50", "--seed", "0"])
    assert code == 0
    assert "chi_hat" in doc["result"]
    assert "chi_exact" not in doc["result"]
    assert "within_4se" not in doc["result"]


def test_perc_deterministic_output(capsys):
    argv = ["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
            "--R", "1", "--replicas", "200", "--seed", "9"]
    _, doc_a = run_cli(capsys, argv)
    _, doc_b = run_cli(capsys, argv)
    assert doc_a == doc_b


def test_ising_subcommand(capsys):
    code, doc = run_cli(capsys, ["ising", "--d", "1", "--M", "6",
                                 "--z", "0.4", "--sweeps", "6000",
                                 "--burn-in", "500", "--seed", "2"])
    assert code == 0
    assert doc["result"]["within_4se"] is True
    assert doc["result"]["equilibrated"] is True


def test_diag_subcommand_and_input_file(tmp_path, capsys):
    code, doc = run_cli(capsys, ["diag", "--family", "nn", "--d", "2",
                                 "--M", "8", "--z", "0.5"])
    assert code == 0
    assert doc["result"]["infrared_sup"] < 1e-12

    # round-trip a serialized input through --input
    from lacelab import diagnostics as dg
    from lacelab.steps import StepDistribution
    from lacelab.torus import TorusGrid
    inp = dg.free_two_point(StepDistribution("nn", 1), TorusGrid(1, 8), 0.4)
    path = tmp_path / "inp.json"
    path.write_text(json.dumps(dg.serialize_input(inp)))
    code, doc2 = run_cli(capsys, ["diag", "--input", str(path)])
    assert code == 0
    assert doc2["result"]["f1"] == pytest.approx(0.4)


def test_diag_input_symmetric_within_the_ghat_tolerance(tmp_path, capsys):
    # ghat(1) - ghat(-1) = 9e-10 passes bubble_triangle's 1e-9 symmetry
    # check; G(x) then has an imaginary part of about 1e-10, which is dropped
    M = 8
    ghat = np.ones(M)
    ghat[1] += 9e-10
    dhat = np.cos(2.0 * np.pi * np.arange(M) / M)
    path = tmp_path / "inp.json"
    path.write_text(json.dumps({"d": 1, "M": M, "tau": 0.1,
                                "ghat": ghat.tolist(),
                                "dhat": dhat.tolist()}))
    code, doc = run_cli(capsys, ["diag", "--input", str(path)])
    assert code == 0
    assert doc["result"]["B"] == pytest.approx(1.0)

    ghat[1] += 2e-10  # now 1.1e-9 apart: rejected
    path.write_text(json.dumps({"d": 1, "M": M, "tau": 0.1,
                                "ghat": ghat.tolist(),
                                "dhat": dhat.tolist()}))
    assert main(["diag", "--input", str(path)]) == 1
    assert "ghat must be symmetric" in capsys.readouterr().err


def test_diag_requires_some_input(capsys):
    code = main(["diag"])
    capsys.readouterr()
    assert code == 1


def test_infrared_assert_flag(capsys):
    code, doc = run_cli(capsys, ["infrared", "--family", "nn", "--d", "2",
                                 "--M", "8", "--z", "0.3", "--assert-free"])
    assert code == 0
    assert doc["result"]["sup_deviation"] < 1e-12


def test_invalid_configuration_exit_code(capsys):
    # z outside [0, 1/sup_D]
    code = main(["perc", "--family", "nn", "--d", "1", "--M", "6",
                 "--z", "3.0", "--R", "1", "--replicas", "10",
                 "--seed", "1"])
    capsys.readouterr()
    assert code == 1


def test_unknown_arguments_exit_code(capsys):
    code = main(["rw-beta", "--family", "nn", "--d", "1", "--s", "7"])
    capsys.readouterr()
    assert code == 1


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LACELAB_OUT_DIR", str(tmp_path))
    code = main(["rw-beta", "--family", "nn", "--d", "1", "--s", "2",
                 "--M", "8,16,32"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "rw-beta.json").exists()
    assert (tmp_path / "rw-beta.json.meta.json").exists()


@pytest.mark.parametrize("argv, folds", [
    (["--family", "nn", "--d", "2", "--M", "8"], [8]),
    (["--family", "nn", "--d", "2", "--M", "8,16,32"], [8, 16, 32]),
    (["--family", "power", "--alpha", "1.2", "--d", "2", "--truncation", "8",
      "--M", "4,8"], [4, 8]),
])
def test_rw_beta_folds_each_grid_once(capsys, fold_calls, argv, folds):
    code, doc = run_cli(capsys, ["rw-beta", "--s", "2"] + argv)
    assert code == 0
    assert fold_calls == folds
    assert doc["result"]["M_sequence"] == folds


@pytest.mark.parametrize("argv, message", [
    (["saw", "--family", "nn", "--d", "2", "--nmax", "-1"], "n_max"),
    (["beta-table", "--family", "power", "--s", "2"], "alpha"),
    (["ising", "--d", "1", "--M", "6", "--z", "0.4", "--thinning", "0",
      "--seed", "1"], "thinning"),
    (["ising", "--d", "1", "--M", "6", "--z", "0.4", "--burn-in", "500",
      "--sweeps", "10", "--seed", "1"], "burn_in"),
    # these ran, but printed Infinity/NaN or a negative chi
    (["diag", "--family", "nn", "--d", "2", "--z", "1.0"], r"\[0, 1\)"),
    (["infrared", "--family", "nn", "--d", "2", "--z", "1.2"], r"\[0, 1\)"),
    (["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
      "--R", "1", "--replicas", "1", "--seed", "1"], "2 samples"),
    (["ising", "--d", "1", "--M", "6", "--z", "0.4", "--sweeps", "502",
      "--burn-in", "500", "--seed", "1"], "2 samples"),
    # the bubble overflows to inf, which standard JSON cannot hold
    (["saw", "--family", "nn", "--d", "2", "--nmax", "2", "--z", "1e150"],
     "not JSON compliant"),
    # these ended in an OverflowError traceback and in "beta": 0.0
    (["saw", "--family", "nn", "--d", "2", "--nmax", "4", "--z", "1e100"],
     "overflows"),
    (["beta-table", "--family", "nn", "--s", "2", "--d-values", "3",
      "--M", "1"], "M must be even"),
])
def test_invalid_inputs_exit_1_with_a_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search("invalid configuration: .*" + message, captured.err)


def test_ising_keeps_a_last_partial_thinning_block(capsys):
    # sweeps 0, 2, ..., 10 of 11 are kept: six samples, not five
    code, doc = run_cli(capsys, ["ising", "--d", "1", "--M", "6", "--z", "0.4",
                                 "--sweeps", "11", "--burn-in", "0",
                                 "--thinning", "2", "--seed", "1"])
    assert code == 0
    assert doc["result"]["samples"] == 6


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_saw_prints_standard_json_without_a_radius(capsys, nmax):
    # too short a series for a radius estimate: the remainder is unbounded
    def reject(name):
        raise ValueError("non-standard JSON constant " + name)

    code = main(["saw", "--family", "nn", "--d", "2", "--nmax", nmax])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    assert doc["result"]["chi_remainder"] is None


def test_perc_folds_once(capsys, fold_calls):
    code, doc = run_cli(capsys, ["perc", "--family", "nn", "--d", "1",
                                 "--M", "6", "--z", "0.5", "--R", "1",
                                 "--replicas", "50", "--seed", "3"])
    assert code == 0
    assert "chi_exact" in doc["result"]
    assert fold_calls == [6]


@pytest.mark.parametrize("argv", [
    ["diag", "--family", "nn", "--d", "2", "--M", "8", "--z", "0.5"],
    ["infrared", "--family", "nn", "--d", "2", "--M", "8", "--z", "0.3"],
])
def test_free_input_builds_the_distribution_once(capsys, dist_inits, argv):
    code, doc = run_cli(capsys, argv)
    assert code == 0
    assert dist_inits == [argv[2]]
    assert doc["spec"]["family"] == argv[2]


def test_numpy_bools_serialise():
    assert json.dumps({"holds": np.bool_(True)}, default=_jsonify) == \
        '{"holds": true}'
