"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from lacelab import ising, kernels, perc, saw  # noqa: E402
from lacelab.steps import StepDistribution  # noqa: E402
from lacelab.torus import TorusGrid  # noqa: E402

import clock_check  # noqa: E402
import oracles  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs(jobs):
    return [(j.kind, j.group, j.argv, j.call.args if j.call else None,
             j.params) for j in jobs]


# the instance parameters the seed moves: CLI flags and float call arguments
SEEDED_FLAGS = {"--z", "--J", "--h", "--seed"}


def _sizes(jobs):
    """Each job with the seeded parameter values taken out."""
    out = []
    for j in jobs:
        argv = [a for i, a in enumerate(j.argv or ())
                if i == 0 or j.argv[i - 1] not in SEEDED_FLAGS]
        args = [a for a in (j.call.args if j.call else ())
                if not isinstance(a, float)]
        out.append((j.kind, j.group, argv, args))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(workload):
    a = _inputs(workloads.make_jobs(workload, 7, 0))
    assert a == _inputs(workloads.make_jobs(workload, 7, 0))
    assert a != _inputs(workloads.make_jobs(workload, 8, 0))
    assert a != _inputs(workloads.make_jobs(workload, 7, 1))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_seed_moves_parameters_never_problem_sizes(workload):
    sizes = _sizes(workloads.make_jobs(workload, 7, 0))
    for seed, pass_index in ((8, 0), (8, 3), (7, 1)):
        assert _sizes(workloads.make_jobs(workload, seed, pass_index)) == sizes
    # M, replicas, sweeps and nmax are among what is compared
    flat = {a for _, _, argv, _ in sizes for a in argv}
    assert "--M" in flat


@pytest.mark.parametrize("M,z", [(4, 0.8), (6, 1.0), (8, 0.6)])
def test_ring_cluster_law_matches_exact_small(M, z):
    cfg = perc.PercConfig(TorusGrid(1, M), StepDistribution("nn", 1), z, 1.0,
                          seed=0)
    exact = perc.exact_small(perc.exact_graph_from_config(cfg), z,
                             pivotal=False)
    np.testing.assert_allclose(oracles.ring_cluster_law(M, z / 2),
                               exact["size_law"], rtol=0, atol=1e-14)


@pytest.mark.parametrize("M,z,J,h", [(6, 0.4, 1.0, 0.0), (8, 0.3, 1.2, 0.2)])
def test_transfer_matrix_matches_exact_ising(M, z, J, h):
    Jm = ising.coupling_matrix_from_torus(TorusGrid(1, M),
                                          {(1,): J, (-1,): J})
    exact = ising.exact_ising(ising.IsingConfig(J=Jm, z=z, h=h))
    tm = oracles.ring_ising(M, z * J, h)
    np.testing.assert_allclose(tm["g"], exact.g, atol=1e-12)
    assert tm["chi"] == pytest.approx(exact.chi_hat, abs=1e-12)
    assert tm["m"] == pytest.approx(exact.m_hat, abs=1e-12)


def test_transfer_matrix_survives_a_strong_field():
    tm = oracles.ring_ising(18, 0.1, 400.0)
    assert tm["chi"] == pytest.approx(18.0) and tm["m"] == pytest.approx(1.0)


def test_torus_bruteforce_matches_exact_ising():
    table = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    Jm = ising.coupling_matrix_from_torus(TorusGrid(2, 4), table)
    exact = ising.exact_ising(ising.IsingConfig(J=Jm, z=0.3))
    np.testing.assert_allclose(oracles.torus_ising_g(2, 4, 0.3), exact.g,
                               atol=1e-10)


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
def test_published_saw_counts_match_enumeration(d, n):
    series = saw.enumerate_walks(StepDistribution("nn", d), n)
    counts = [m * (2 * d) ** k for k, m in enumerate(series.masses())]
    assert counts == oracles.SAW_COUNTS[d][:n + 1]


def test_torus_sampler_matches_exact_small_on_a_ring():
    cfg = perc.PercConfig(TorusGrid(1, 6), StepDistribution("nn", 1), 1.0,
                          1.0, seed=0)
    chi = perc.exact_small(perc.exact_graph_from_config(cfg), 1.0,
                           pivotal=False)["chi"]
    sizes = oracles.sample_torus_percolation(1, 6, 0.5, 20000,
                                             np.random.default_rng(3))
    mean, se = oracles.mean_and_se(sizes)
    assert abs(mean - chi) <= 4 * se


def test_oracle_mismatch_fails_a_named_check():
    job = workloads.Job("exact", "ring M=6", workloads.check_exact_ising,
                        params={"M": 6, "K": 0.4, "h": 0.0})
    tm = oracles.ring_ising(6, 0.4, 0.0)
    good = {"chi": tm["chi"], "m": tm["m"], "g": tm["g"].tolist()}
    checks = workloads.Checks()
    for doc in (good, dict(good, chi=tm["chi"] + 1e-3),
                dict(good, m=float("nan"))):
        job.check(job, workloads.Outcome(0.0, 0.0, 0, doc), checks)
    job.check(job, workloads.Outcome(0.0, 0.0, error="MemoryError: boom"),
              checks)
    assert [ok for _, ok, _ in checks.results] == [True, False, False, False]
    assert {n for n, _ in checks.failures()} == {
        "exact_ising.vs_transfer_matrix[ring M=6]"}


def test_checks_are_counted_by_name_not_by_pass():
    one, three = workloads.Checks(), workloads.Checks()
    for checks, passes in ((one, 1), (three, 3)):
        for i in range(passes):
            checks.add("a", True)
            checks.add("b", i != 1, "pass %d" % i)
    assert one.named() == [("a", 1, []), ("b", 1, [])]
    assert three.named() == [("a", 3, []), ("b", 3, ["pass 1"])]


def test_only_the_known_failure_of_a_defect_check_is_expected():
    nan = "exact_ising.vs_transfer_matrix[ring M=18 z=0.1 h=400]"
    assert workloads.known_defect(nan, "not finite: chi, m, g[0], g[1], g[2]")
    assert workloads.known_defect(nan, "not finite: chi, m")
    assert not workloads.known_defect(nan, "MemoryError: boom")
    assert not workloads.known_defect(nan, "exit code 1")
    assert not workloads.known_defect(nan, "not finite: chi")
    g = "ising.g_vs_bruteforce[ising d=2 M=4]"
    assert workloads.known_defect(
        g, "10 of 16 sites beyond 4 combined SE over 10 jobs (sites [1, 2])")
    assert not workloads.known_defect(g, "MemoryError: boom")
    assert not workloads.known_defect(
        "exact_ising.vs_transfer_matrix[ring M=16]", "not finite: chi, m")


def test_self_time_on_a_synthetic_nested_trace():
    t = tracing.Tracer()
    # outer [0, 10] holds a [1, 4] and b [5, 7]; b holds c [5.5, 6]
    t.spans = [["outer", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
               ["b", 5.0, 7.0, 0, 0], ["c", 5.5, 6.0, 2, 0],
               ["a", 8.0, 9.0, 0, 0]]
    s = t.summary()
    assert s["outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert s["a"] == {"calls": 2, "total_s": pytest.approx(4.0),
                      "self_s": pytest.approx(4.0), "draws": 0}
    assert s["b"]["self_s"] == pytest.approx(1.5)
    assert s["c"]["self_s"] == pytest.approx(0.5)


def test_tracing_records_spans_and_restores_every_original():
    originals = {
        (kernels, "percolation_clusters"): kernels.percolation_clusters,
        (perc, "percolation_clusters"): perc.percolation_clusters,
        (kernels, "counter_uniform"): kernels.counter_uniform,
        (perc, "sample_cluster"): perc.sample_cluster,
        (StepDistribution, "fold"): StepDistribution.fold,
        (StepDistribution, "__post_init__"): StepDistribution.__post_init__,
    }
    cfg = perc.PercConfig(TorusGrid(1, 4), StepDistribution("nn", 1), 0.8,
                          1.0, seed=1, replicas=5)
    untraced = perc.sample_cluster(cfg).sizes
    with tracing.Tracer() as tracer:
        run.install_tracing(tracer)
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn
        traced = perc.sample_cluster(cfg).sizes
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn
    np.testing.assert_array_equal(traced, untraced)
    spans = tracer.summary()
    assert spans["perc.sample_cluster"]["calls"] == 1
    kernel = spans["kernels.percolation_clusters"]
    assert kernel["draws"] == tracer.draws > 0
    assert spans["perc.sample_cluster"]["self_s"] < \
        spans["perc.sample_cluster"]["total_s"]


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refclock_divides_wall_time_by_the_measured_slowdown():
    now = [0.0]
    loop_s = [0.002]  # twice the reference: the host runs at half speed

    def calibrate():
        now[0] += loop_s[0]

    clock = refclock.RefClock(timer=lambda: now[0], calibrate=calibrate,
                              ref_s=0.001)
    start, raw_start = clock.now(), clock.raw_now()
    now[0] += 1.0
    clock.sample()
    assert clock.now() - start == pytest.approx(0.5)  # ticks left out
    assert clock.raw_now() - raw_start == pytest.approx(1.0)
    loop_s[0] = 0.010  # one preempted loop does not rescale the interval
    now[0] += 1.0
    clock.sample()
    assert clock.now() - start == pytest.approx(1.0)
    assert clock.raw_now() - raw_start == pytest.approx(2.0)


def test_refclock_restores_the_signal_handler_and_timer():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        t0 = clock.now()
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        assert clock.now() > t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_clock_check_fits_the_slope_of_time_against_slowdown():
    slowdowns = [1.0, 1.2, 1.5, 1.9, 1.1]
    steady, b_steady = clock_check.fit_slope([2.0] * 5, slowdowns)
    assert steady == pytest.approx(0.0) and b_steady == pytest.approx(0.0)
    # time grows with the slowdown: raw time of code that slows like the loop
    slope, _ = clock_check.fit_slope([2.0 * f for f in slowdowns], slowdowns)
    assert slope == pytest.approx(2.0 / 2.4)  # normalised by the median 2.4
