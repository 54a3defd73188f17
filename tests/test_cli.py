import hashlib
import json
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from lacelab import cli
from lacelab import saw as sw
from lacelab import steps
from lacelab import walk as wk
from lacelab.cli import main
from lacelab.steps import StepDistribution

from conftest import traced_peak


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


@pytest.mark.parametrize("argv", [
    # all 290 kept sweeps aligned: chi_hat = 6 while chi_exact rounds below
    ["ising", "--d", "1", "--M", "6", "--z", "5.0", "--h", "3", "--seed", "1",
     "--sweeps", "300", "--burn-in", "10", "--thinning", "1"],
    # every cluster spans the ring: chi_hat = 4 while chi_exact rounds below
    ["perc", "--family", "nn", "--d", "1", "--M", "4", "--z", "1.99999",
     "--R", "1", "--replicas", "200", "--seed", "1"],
], ids=["ising", "perc"])
def test_a_check_with_zero_se_passes_within_the_mean_resolution(capsys,
                                                                 argv):
    code, doc = run_cli(capsys, argv)
    result = doc["result"]
    assert result["chi_se"] == 0.0
    assert 0 < abs(result["chi_hat"] - result["chi_exact"]) < 1e-9
    assert result["within_4se"] is True
    assert code == 0


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


def test_diag_input_records_the_sha256_of_the_file(tmp_path, capsys):
    # one path, two contents: the two documents' specs differ
    from lacelab import diagnostics as dg
    from lacelab.torus import TorusGrid
    path = tmp_path / "inp.json"
    specs = []
    for z in (0.3, 0.4):
        inp = dg.free_two_point(StepDistribution("nn", 1), TorusGrid(1, 8), z)
        path.write_text(json.dumps(dg.serialize_input(inp)))
        code, doc = run_cli(capsys, ["diag", "--input", str(path)])
        assert code == 0
        assert doc["spec"]["input_sha256"] == hashlib.sha256(
            path.read_bytes()).hexdigest()
        specs.append(doc["spec"])
    assert specs[0] != specs[1]


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


def test_diag_input_with_a_negative_triangle_exits_0(tmp_path, capsys):
    # T = M^-d sum Ghat^3 < 0: the k/x cross-check is held to the size of
    # the rounding error, M^-d sum |Ghat|^3 = 9.0e14, not to max(1, T) = 1,
    # which the 0.28 the two sums differ by here exceeded
    path = tmp_path / "inp.json"
    path.write_text(json.dumps({
        "d": 1, "M": 8, "tau": 0.5,
        "ghat": [10000.1, -89999.8, -89999.7, -69999.3, 153275.4, -69999.3,
                 -89999.7, -89999.8],
        "dhat": [1.0, 0.5, 0.0, -0.5, -1.0, -0.5, 0.0, 0.5]}))
    code, doc = run_cli(capsys, ["diag", "--input", str(path)])
    assert code == 0
    assert doc["result"]["T"] < 0


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


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
     "--R", "1", "--replicas", "200", "--seed", "9"],
    ["ising", "--d", "1", "--M", "6", "--z", "0.4", "--sweeps", "600",
     "--burn-in", "100", "--seed", "2"],
    ["rw-beta", "--family", "nn", "--d", "1", "--s", "2", "--M", "8,16"],
    ["saw", "--family", "nn", "--d", "2", "--nmax", "5", "--z", "0.3"],
], ids=lambda argv: argv[0])
def test_a_repeated_call_prints_the_same_bytes_after_failed_calls(capsys,
                                                                  argv):
    assert main(argv) == 0
    first = capsys.readouterr().out
    # a parse error and a validation error in between leave no trace
    assert main(["rw-beta", "--family", "nn", "--d", "1", "--s", "7"]) == 1
    assert main(["perc", "--family", "nn", "--d", "1", "--M", "6",
                 "--z", "3.0", "--R", "1", "--replicas", "10",
                 "--seed", "1"]) == 1
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [["--help"], ["perc", "--help"]])
def test_help_exits_0_every_time(capsys, argv):
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "usage: lacelab" in first


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
    (["--family", "nn", "--d", "2", "--M", "8,16,32"], [8]),
    (["--family", "power", "--alpha", "1.2", "--d", "2", "--truncation", "8",
      "--M", "4,8"], [4]),
])
def test_rw_beta_folds_each_grid_once(capsys, fold_calls, argv, folds):
    # the first grid is folded once, for beta's x-space side; the extra M
    # take Dhat from the family on the dual orthant and fold zero times
    code, doc = run_cli(capsys, ["rw-beta", "--s", "2"] + argv)
    assert code == 0
    assert fold_calls == folds
    assert doc["result"]["M_sequence"] == [int(m)
                                           for m in argv[-1].split(",")]


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
    # these ran: truncation 0 meant the default, -3 an empty support
    (["dist-check", "--family", "power", "--alpha", "1.2", "--d", "1",
      "--truncation", "0"], "truncation must be an integer >= 1"),
    (["dist-check", "--family", "power", "--alpha", "1.2", "--d", "1",
      "--truncation", "-3"], "truncation must be an integer >= 1"),
    (["dist-check", "--family", "uniform", "--d", "2", "--truncation", "5"],
     "power family only"),
    # this ran the antiferromagnet; replicas 0 failed inside numpy
    (["ising", "--d", "1", "--M", "6", "--z", "-0.4", "--sweeps", "1000",
      "--burn-in", "10", "--seed", "0"], "z must be >= 0"),
    (["ising", "--d", "1", "--M", "6", "--z", "0.4", "--replicas", "0",
      "--seed", "0"], "replicas must be positive"),
    # these ran with no bonds or steps: perc printed chi_hat = 1.0
    (["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
      "--R", "-1", "--seed", "1"], "R must be >= 0"),
    (["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
      "--R", "nan", "--seed", "1"], "R must be >= 0"),
    (["saw", "--family", "nn", "--d", "2", "--nmax", "3",
      "--support-radius", "-1"], "R must be >= 0"),
    (["saw", "--family", "power", "--alpha", "1.2", "--d", "2", "--nmax",
      "2", "--mode", "double", "--support-radius", "nan"], "R must be >= 0"),
    # --z inf ran every sweep, warned from np.exp and failed on a NaN in
    # the JSON; a NaN h or perc z passed every comparison-based check
    (["ising", "--d", "1", "--M", "4", "--z", "inf", "--seed", "1"],
     "z must be finite"),
    (["ising", "--d", "1", "--M", "4", "--z", "0.4", "--h", "nan",
      "--seed", "1"], "h must be finite"),
    (["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "nan",
      "--R", "1", "--seed", "1"], r"\[0, 1/sup_D\]"),
    # these failed on JSON output: "Out of range float values are not JSON
    # compliant"
    (["saw", "--family", "nn", "--d", "2", "--nmax", "3", "--z", "nan"],
     "z must be finite"),
    (["saw", "--family", "nn", "--d", "2", "--nmax", "3", "--z", "inf"],
     "z must be finite"),
    # these ran, and the spec recorded neither flag
    (["rw-beta", "--family", "nn", "--d", "2", "--s", "2", "--M", "8",
      "--alpha", "1.2", "--L", "3"], "range L"),
    (["rw-beta", "--family", "uniform", "--d", "2", "--s", "2", "--M", "8",
      "--alpha", "1.2"], "alpha applies to the power family only"),
    # these ran, and the sweep ignored the flag or recorded it unread
    (["beta-table", "--family", "nn", "--s", "2", "--d", "3", "--M", "8"],
     "--d does not apply to the nn family"),
    (["beta-table", "--family", "nn", "--s", "2", "--L-values", "1",
      "--M", "8"], "--L-values does not apply to the nn family"),
    (["beta-table", "--family", "nn", "--s", "2", "--alpha", "1.2",
      "--M", "8"], "--alpha does not apply to the nn family"),
    (["beta-table", "--family", "uniform", "--s", "2", "--d", "2",
      "--L-values", "1", "--M", "8", "--alpha", "1.2"],
     "--alpha does not apply to the uniform family"),
    (["beta-table", "--family", "uniform", "--s", "2", "--d-values", "3",
      "--M", "8"], "--d-values does not apply to the uniform family"),
    (["beta-table", "--family", "power", "--s", "2", "--alpha", "1.2",
      "--d-values", "3", "--M", "8"],
     "--d-values does not apply to the power family"),
    # these raised KeyError and TypeError; the argument after --input is
    # the text of the file passed
    (["diag", "--input", "{}"], "has no d, M, tau, ghat, dhat"),
    (["diag", "--input", "[1, 2]"], "not a JSON object"),
    (["diag", "--input", '{"d": 1, "M": 8, "tau": 0.0, "ghat": [1]}'],
     "has no dhat$"),
    (["diag", "--input",
      '{"d": null, "M": 8, "tau": 0.0, "ghat": [1], "dhat": [1]}'],
     "wrong type"),
    (["diag", "--input",
      '{"d": 1, "M": 8, "tau": 0.0, "ghat": {"a": 1}, "dhat": [1]}'],
     "wrong type"),
    # this printed the moment of order -0.3 as finite and ok: true
    (["dist-check", "--family", "power", "--alpha", "1.2", "--d", "3",
      "--eps", "1.5"], r"eps must be < alpha = 1\.2"),
    (["dist-check", "--family", "power", "--alpha", "1.2", "--d", "3",
      "--eps", "1.2"], r"eps must be < alpha = 1\.2"),
    # this listed kappa = 2 twice
    (["dist-check", "--family", "nn", "--d", "2", "--eps", "0"],
     "eps must be finite and > 0"),
    (["dist-check", "--family", "nn", "--d", "2", "--eps", "-0.1"],
     "eps must be finite and > 0"),
    # these failed on JSON output without naming the flag
    (["dist-check", "--family", "nn", "--d", "2", "--eps", "nan"],
     "eps must be finite and > 0"),
    (["dist-check", "--family", "uniform", "--d", "2", "--eps", "inf"],
     "eps must be finite and > 0"),
    # this ended in a ZeroDivisionError traceback, and a d of 1.5 was read
    # as 1
    (["diag", "--input",
      '{"d": 1, "M": 4, "tau": 0.5, "ghat": [0.0, 1.0, 1.0, 1.0], '
      '"dhat": [1.0, 0.0, -1.0, 0.0]}'], r"chi = Ghat\(0\) must be positive"),
    (["diag", "--input",
      '{"d": 1.5, "M": 4, "tau": 0.5, "ghat": [2.0, 1.0, 1.0, 1.0], '
      '"dhat": [1.0, 0.0, -1.0, 0.0]}'], "d must be an integer, got 1.5"),
    # the exact oracle's log-weights would overflow into NaN
    (["ising", "--d", "1", "--M", "4", "--z", "0.3", "--h", "5e307",
      "--seed", "1", "--sweeps", "40", "--burn-in", "10"],
     "exact Ising log-weights overflow"),
    (["ising", "--d", "1", "--M", "4", "--z", "1e308", "--seed", "1",
      "--sweeps", "40", "--burn-in", "10"],
     "exact Ising log-weights overflow"),
])
def test_invalid_inputs_exit_1_with_a_message(tmp_path, capsys, argv,
                                              message):
    if "--input" in argv:
        at = argv.index("--input") + 1
        path = tmp_path / "input.json"
        path.write_text(argv[at])
        argv = argv[:at] + [str(path)] + argv[at + 1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search("invalid configuration: .*" + message, captured.err)


@pytest.mark.parametrize("argv", [
    ["dist-check", "--family", "nn", "--d", "2"],
    ["rw-beta", "--family", "nn", "--d", "2", "--s", "2", "--M", "8"],
    ["saw", "--family", "nn", "--d", "2", "--nmax", "3"],
    ["perc", "--family", "nn", "--d", "1", "--M", "6", "--z", "0.5",
     "--R", "1", "--seed", "1"],
    ["ising", "--d", "1", "--M", "4", "--z", "0.4", "--seed", "1"],
    ["diag", "--family", "nn", "--d", "2"],
    ["infrared", "--family", "nn", "--d", "2", "--z", "0.5"],
    ["acceptance"],
], ids=lambda argv: argv[0])
def test_csv_belongs_to_beta_table_alone(tmp_path, capsys, argv):
    # each of these exited 0 and wrote no table
    table = tmp_path / "table.csv"
    code = main(argv + ["--csv", str(table)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "unrecognized arguments: --csv" in captured.err
    assert not table.exists()


def test_an_exhausted_saw_budget_exits_1(capsys, monkeypatch):
    # at the default budget of 50,000,000 walks this ended in a
    # BudgetExceeded traceback, after seconds of search
    monkeypatch.setattr(sw, "DEFAULT_NODE_BUDGET", 1000)
    code = main(["saw", "--family", "nn", "--d", "2", "--nmax", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search("invalid configuration: .*budget", captured.err)


def test_a_hopeless_saw_nmax_is_refused_before_the_search(capsys):
    # the 2^30 walks that only go up or right already pass the default
    # budget, so no search runs
    code = main(["saw", "--family", "nn", "--d", "2", "--nmax", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search("invalid configuration: n_max = 30 needs more than the "
                     "enumeration budget of 50000000 walks", captured.err)


def _rw_beta_d6_under_an_address_cap(M):
    """rw-beta nn d=6 s=2 at --M M with the address space capped at 64 GiB,
    so any allocation past the cap fails at once whatever the host's
    overcommit policy; the exit code and the captured streams."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code = main(["rw-beta", "--family", "nn", "--d", "6", "--s", "2",
                     "--M", M])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return code


def test_a_grid_too_large_for_memory_exits_1(capsys, monkeypatch):
    # the M = 256 grid in d = 6 needs 19 GiB of k-space working set (a
    # block of C(133, 5) chamber points at 64 bytes), more than half of a
    # host with 8 GiB; the host's memory is pinned there so the refusal
    # does not depend on it
    monkeypatch.setattr(wk, "_physical_memory", lambda: 8 << 30)
    code = _rw_beta_d6_under_an_address_cap("8,256")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "invalid configuration: Unable to allocate" in captured.err
    assert "working set of M = 256 in d = 6" in captured.err


def test_a_grid_far_too_large_for_memory_exits_1(capsys):
    # the M = 512 grid needs 580 GiB (C(261, 5) chamber points): more than
    # half of the address-space cap, on any host
    code = _rw_beta_d6_under_an_address_cap("8,512")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "invalid configuration: Unable to allocate" in captured.err
    assert "working set of M = 512 in d = 6" in captured.err


def test_the_d6_M64_grid_is_summed_on_its_chamber(capsys):
    # summed slab by slab, M = 64 in d = 6 took 17.7 s and 681 MiB; its
    # chamber holds 2,760,681 points
    code, doc = run_cli(capsys, ["rw-beta", "--family", "nn", "--d", "6",
                                 "--s", "2", "--M", "8,64"])
    assert code == 0
    assert doc["result"]["beta_sequence"][1] == pytest.approx(
        wk.beta_separable(StepDistribution("nn", 6), 64, 2), rel=1e-12)


@pytest.mark.parametrize("table, dists", [
    (["--family", "nn", "--d-values", "3,4,5"],
     [StepDistribution("nn", d) for d in (3, 4, 5)]),
    (["--family", "uniform", "--d", "3", "--L-values", "2"],
     [StepDistribution("uniform", 3, L=2)])], ids=["nn", "uniform"])
def test_beta_table_rows_are_rw_beta_bit_for_bit(capsys, table, dists):
    # beta-table once summed a value DP of its own: nn d = 5 printed
    # 0.45764551320216523 where rw-beta printed 0.4576455132021652
    code, doc = run_cli(capsys, ["beta-table", "--s", "2", "--M", "8"]
                        + table)
    assert code == 0
    rows = doc["result"]["rows"]
    assert len(rows) == len(dists)
    for row, dist in zip(rows, dists):
        code, rw = run_cli(capsys, [
            "rw-beta", "--family", dist.family, "--d", str(dist.d),
            "--L", str(dist.L), "--s", "2", "--M", "8"])
        assert code == 0
        assert row["beta"] == rw["result"]["beta_sequence"][0]
        assert row["beta"] == pytest.approx(
            wk.beta_separable(dist, 8, 2), rel=1e-12)


def _readme_cli_examples():
    """The `lacelab ...` lines of README's CLI block, as argv lists; a line
    that reads a saved --input file is left out."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("lacelab ") and "--input" not in line]
    assert lines
    return lines


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_exit_0(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("LACELAB_OUT_DIR", raising=False)
    if "--csv" in argv:
        argv[argv.index("--csv") + 1] = str(tmp_path / "table.csv")
    code, doc = run_cli(capsys, argv)
    assert code == 0
    assert doc["subcommand"] == argv[0]


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


@pytest.mark.parametrize("argv", [
    ["saw", "--family", "uniform", "--d", "2", "--L", "4", "--nmax", "3",
     "--support-radius", "2"],
    ["saw", "--family", "power", "--alpha", "1.2", "--d", "2",
     "--truncation", "16", "--nmax", "3", "--mode", "double",
     "--support-radius", "2"],
])
def test_saw_extracts_the_lace_under_a_support_radius(capsys, argv):
    # the full supports (80 and 1088 steps) exceed the branching cap; the
    # lace expansion must use the 12 steps kept within radius 2
    code, doc = run_cli(capsys, argv)
    assert code == 0
    assert doc["result"]["weight_loss"] > 0
    assert sorted(doc["result"]["pi_masses"]) == ["2", "3"]


def test_saw_pi2_mass_under_a_support_radius(capsys):
    # pi_2 = -sum_y D(y)^2 over the 12 kept steps of weight 1/80
    code, doc = run_cli(capsys, ["saw", "--family", "uniform", "--d", "2",
                                 "--L", "4", "--nmax", "2",
                                 "--support-radius", "2"])
    assert code == 0
    assert doc["result"]["pi_masses"]["2"] == -12 / 80 ** 2


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


def test_perc_warns_once_per_run(capsys):
    # fires the half-period and the clip warning; the sampler and the exact
    # oracle's graph (built on tori of at most 64 sites) read one bond
    # table, built once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, doc = run_cli(capsys, ["perc", "--family", "uniform", "--d",
                                     "2", "--L", "2", "--M", "4", "--z", "14",
                                     "--R", "3", "--replicas", "200",
                                     "--seed", "4"])
    assert code == 0
    messages = sorted(str(w.message).split(";")[0] for w in caught)
    assert messages == ["bond probability clipped at 1",
                        "offset at half the torus period excluded"]


class TestPowerDistCheck:
    @pytest.fixture
    def cosines(self, monkeypatch):
        """Counts the cosines the power transform evaluates."""
        counts = {"cosines": 0}
        cosines = steps._axis_cosines

        def counting_cosines(t, x):
            table = cosines(t, x)
            counts["cosines"] += table.size
            return table

        monkeypatch.setattr(steps, "_axis_cosines", counting_cosines)
        return counts

    def test_the_default_family_is_not_summed_point_by_point(self, capsys,
                                                             cosines,
                                                             expansions):
        # the support sum took cos(k.x) at 511 k and 19,989,840 points
        code, doc = run_cli(capsys, ["dist-check", "--family", "power",
                                     "--alpha", "1.2", "--d", "2"])
        assert code == 0
        assert doc["result"]["ok"] is True
        width = doc["spec"]["truncation"] + 1
        # two scan samples, 16 distinct values on each of 2 axes
        assert cosines["cosines"] == 2 * 2 * 16 * width
        assert expansions == {"support_calls": 0, "points": 0}

    def test_d3_transform_matches_the_support_sum(self, capsys, monkeypatch):
        # the scan samples and the moments share one weight stream (scan)
        seen = []
        scan = StepDistribution.scan

        def recording(self, samples, kappas):
            dhats, moments = scan(self, samples, kappas)
            seen.extend((self, np.asarray(k, dtype=float), out)
                        for k, out in zip(samples, dhats))
            return dhats, moments

        monkeypatch.setattr(StepDistribution, "scan", recording)
        code, doc = run_cli(capsys, ["dist-check", "--family", "power",
                                     "--alpha", "1.2", "--d", "3",
                                     "--truncation", "8"])
        assert code == 0
        assert [len(k) for _, k, _ in seen] == [16 ** 3, 16 ** 3]
        for dist, k, out in seen:
            want = dist.fourier_d_support_sum(k)
            assert np.max(np.abs(out - want)) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["diag", "--family", "power", "--alpha", "1.2", "--d", "2", "--M", "16"],
    ["dist-check", "--family", "power", "--alpha", "1.2", "--d", "3"],
    ["rw-beta", "--family", "power", "--alpha", "1.2", "--d", "2", "--s", "2",
     "--M", "8,16"],
    ["saw", "--family", "power", "--alpha", "1.2", "--d", "2",
     "--support-radius", "2.5", "--nmax", "4", "--mode", "double"],
    ["perc", "--family", "power", "--alpha", "1.2", "--d", "2", "--M", "6",
     "--z", "0.3", "--R", "1.5", "--replicas", "50", "--seed", "1"]],
    ids=lambda argv: argv[0])
def test_power_jobs_stream_the_orthant_once(capsys, streams, argv):
    # every transform, fold and moment of one job, and the norm, read one
    # weight stream; no orthant-size array is built
    with traced_peak() as traced:
        code, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(streams) == 1
    if argv[0] == "diag":
        assert traced.peak < 4 * 2 ** 20  # 38.7 MiB with a stored orthant


def _rw_beta_nn_peak(capsys, d):
    """tracemalloc peak of `rw-beta --family nn --d d --M 8,16,32`."""
    with traced_peak() as traced:
        code, doc = run_cli(capsys, ["rw-beta", "--family", "nn", "--d",
                                     str(d), "--s", "2", "--M", "8,16,32"])
    assert code == 0
    assert doc["result"]["M_sequence"] == [8, 16, 32]
    return traced.peak


def test_rw_beta_nn_d5_stays_small(capsys):
    # folding every grid of the M sequence onto M^d sites peaked at 1.3 GB,
    # and building the M = 32 orthant at 13.2 MiB
    assert _rw_beta_nn_peak(capsys, 5) < 8 * 2 ** 20


def test_rw_beta_nn_d6_stays_small(capsys):
    # building the M = 32 orthant peaked at 218 MiB
    assert _rw_beta_nn_peak(capsys, 6) < 64 * 2 ** 20
