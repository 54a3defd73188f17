"""Run one workload of the lacelab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this one process as a closed loop: one client, jobs
back to back, each job through lacelab.cli.main(argv) or a public library
function.  With --trace 0 the job list is repeated, with fresh inputs from
the seed for each pass, for about S seconds; the end-to-end metrics are
medians over passes.  With --trace 1 one pass runs untraced and the same
pass again with spans around the library's public functions, which gives
the per-layer metrics.  Times come from refclock.RefClock, which corrects
wall time for host load; the raw times of every pass are printed beside
them.  Every output is checked (see workloads.py).  The last line of stdout
is one JSON object: correct, attempted, failed (checks) and metrics.  See
perfbench/README.md.
"""

import os

# Pin BLAS threads before numpy is first imported, so that a run measures
# the same thing on any machine (1 is never above nproc).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# With this set, the CLI writes its JSON to files instead of stdout.
os.environ.pop("LACELAB_OUT_DIR", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

from refclock import RefClock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Same cap as `ulimit -v 3000000`: a memory blow-up raises MemoryError in
# the job, which fails its check, instead of exhausting the machine.
ADDRESS_SPACE_BYTES = 3_000_000 * 1024
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
DRAW_BATCH = 200_000
# A pass whose raw wall time exceeds its corrected time by more than this
# ran while the host was loaded, and its figure rests on the correction.
CONTENDED_SLOWDOWN = 1.05
# counter_uniform(12345, 7, i) for i = 0..3; the streams must stay bit-exact
GOLDEN_DRAWS = [0.3693395693906224, 0.4129192964626678, 0.4270643539016975,
                0.6372983272557203]

KINDS = ("perc", "ising", "exact", "beta", "saw", "diag")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# (module, attribute) of each traced function, as "module.attr" span names;
# methods of StepDistribution are traced on the class.
TRACED = [
    "kernels.percolation_clusters", "kernels.metropolis_run",
    "perc.sample_cluster", "perc.bond_offsets", "perc.exact_graph_from_config",
    "perc.exact_small", "perc.exact_pair_matrix",
    "ising.exact_correlation_matrix", "ising.exact_ising", "ising.metropolis",
    "ising.coupling_matrix_from_torus",
    "torus.convolve", "torus.dft",
    "walk.beta", "walk.folded_dhat", "walk.beta_separable",
    "saw.enumerate_walks", "saw.extract_lace", "saw.reconstruct_c",
    "diagnostics.diagram_report", "diagnostics.free_two_point",
    "cli.main",
]
TRACED_METHODS = [("__post_init__", "steps.StepDistribution.init"),
                  ("fold", "steps.fold"), ("fourier_d", "steps.fourier_d")]

SPANS = TRACED + [name for _, name in TRACED_METHODS]
# the constructor calls no traced function: its time is init_s below
SELF_TIMED = [name for name in SPANS if name != "steps.StepDistribution.init"]
PER_LAYER = (
    [(name + ".self_s", "s") for name in SELF_TIMED]
    + [("kernels.counter_uniform.draws", "count"),
       ("kernels.counter_uniform.draws_per_s", "1/s"),
       ("kernels.perc.bond_probes", "count"),
       ("kernels.perc.bond_probes_per_s", "1/s"),
       ("kernels.metropolis.spin_updates", "count"),
       ("kernels.metropolis.spin_updates_per_s", "1/s"),
       ("kernels.metropolis.kept_samples", "count"),
       ("perc.exact_small.configs", "count"),
       ("perc.exact_small.configs_per_s", "1/s"),
       ("ising.exact.configs", "count"),
       ("ising.exact.configs_per_s", "1/s"),
       ("steps.StepDistribution.init_s", "s"),
       ("steps.fold.calls", "count"),
       ("torus.convolve.calls", "count"),
       ("walk.folded_dhat.calls", "count"),
       ("saw.dfs_nodes", "count"),
       ("saw.dfs_nodes_per_s", "1/s"),
       ("trace.overhead_frac", "ratio"),
       ("pass.raw_wall_s", "s"),
       ("pass.slowdown", "ratio")]
    + [("job.%s_s" % kind, "s") for kind in KINDS])


def import_program():
    """Import lacelab from this checkout's src/, and nothing else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import lacelab
    except ImportError as exc:
        sys.exit("perfbench: cannot import lacelab from %s: %s" % (SRC, exc))
    if not os.path.abspath(lacelab.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: lacelab was imported from %s, not %s"
                 % (lacelab.__file__, SRC))


def limit_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def environment() -> dict:
    import numpy
    from lacelab import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "use_numba": bool(kernels.USE_NUMBA),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "address_space_limit_kib": ADDRESS_SPACE_BYTES // 1024}


# -- set-up --------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Input generation and warm-up: everything before the first timed job."""
    import workloads
    jobs = workloads.make_jobs(workload, seed, 0)
    warm = [(job, workloads.run_job(job))
            for job in workloads.warmup_jobs(jobs)]
    return jobs, warm


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, which reports it on stdout."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: set-up failed: %s" % proc.stderr.strip()[-500:])
    return float(proc.stdout.split()[-1])


# -- passes ----------------------------------------------------------------------

def run_pass(jobs, clock):
    """Run a job list under a RefClock; returns the pass record (corrected
    and raw wall time, mean slowdown, time per job kind) and the outcomes."""
    import workloads
    kinds = defaultdict(lambda: [0.0, 0.0])
    outcomes = []
    t0, r0 = clock.now(), clock.raw_now()
    for job in jobs:
        res = workloads.run_job(job, clock.now, clock.raw_now)
        kinds[job.kind][0] += res.seconds
        kinds[job.kind][1] += res.raw_seconds
        outcomes.append((job, res))
    wall, raw = clock.now() - t0, clock.raw_now() - r0
    record = {"wall_s": wall, "raw_wall_s": raw, "slowdown": raw / wall,
              "contended": raw / wall > CONTENDED_SLOWDOWN,
              "kinds": {kind: {"s": c, "raw_s": r}
                        for kind, (c, r) in kinds.items()}}
    return record, outcomes


def untraced_passes(args, first_jobs, clock):
    """Passes with fresh inputs until another would end after --seconds."""
    import workloads
    passes, outcomes = [], []
    start = time.perf_counter()
    jobs = first_jobs
    while True:
        record, outs = run_pass(jobs, clock)
        passes.append(record)
        outcomes += outs
        if time.perf_counter() - start + record["raw_wall_s"] > args.seconds:
            return passes, outcomes
        jobs = workloads.make_jobs(args.workload, args.seed, len(passes))


def install_tracing(tracer):
    from lacelab import kernels, steps
    hooks = {
        "kernels.metropolis_run": count_metropolis,
        "perc.exact_small": count_exact_small,
        "ising.exact_ising": count_exact_ising,
        "saw.enumerate_walks": count_dfs_nodes,
    }
    for name in TRACED:
        module, attr = name.split(".")
        tracer.trace(importlib.import_module("lacelab." + module), attr, name,
                     hooks.get(name))
    for attr, name in TRACED_METHODS:
        tracer.trace(steps.StepDistribution, attr, name)
    tracer.count_calls(kernels, "counter_uniform")


def count_metropolis(counts, args, kwargs, result):
    n_sites, sweeps, burn_in, thinning = args[2], args[7], args[8], args[9]
    counts["kernels.metropolis.spin_updates"] += sweeps * n_sites
    counts["kernels.metropolis.kept_samples"] += (sweeps - burn_in) // thinning


def count_exact_small(counts, args, kwargs, result):
    counts["perc.exact_small.configs"] += 2 ** len(args[0].bonds)


def count_exact_ising(counts, args, kwargs, result):
    counts["ising.exact.configs"] += 2 ** args[0].n_sites


def count_dfs_nodes(counts, args, kwargs, series):
    # one DFS node per walk of length >= 1; every step weighs 1/|support|
    branching = len(series.dist.support()[0])
    counts["saw.dfs_nodes"] += sum(round(float(series.mass(n)) * branching ** n)
                                   for n in range(1, series.n_max + 1))


def counter_draw_rate(checks, clock) -> float:
    """Draws per second of the scalar counter RNG on a fixed key batch."""
    from lacelab.kernels import counter_uniform
    t0 = clock.now()
    draws = [counter_uniform(12345, 7, i) for i in range(DRAW_BATCH)]
    rate = DRAW_BATCH / (clock.now() - t0)
    checks.add("kernels.counter_uniform.golden", draws[:4] == GOLDEN_DRAWS,
               "first draws %r" % draws[:4])
    return rate


def traced_metrics(jobs, checks, clock):
    import tracing
    untraced, outcomes = run_pass(jobs, clock)
    with tracing.Tracer(clock.now) as tracer:
        install_tracing(tracer)
        traced_pass, traced = run_pass(jobs, clock)
    wall_u, wall_t = untraced["wall_s"], traced_pass["wall_s"]
    changed = [job.group for (job, a), (_, b) in zip(outcomes, traced)
               if a.text != b.text]
    checks.add("trace.outputs_unchanged", not changed,
               "outputs differ under tracing: %r" % changed[:5])
    spans = tracer.summary()
    counts = tracer.counts

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def rate(count, name):
        busy = span(name, "total_s")
        return count / busy if busy > 0 else 0.0

    probes = span("kernels.percolation_clusters", "draws")
    m = {name + ".self_s": span(name, "self_s") for name in SELF_TIMED}
    m.update({
        "kernels.counter_uniform.draws": tracer.draws,
        "kernels.counter_uniform.draws_per_s": counter_draw_rate(checks, clock),
        "kernels.perc.bond_probes": probes,
        "kernels.perc.bond_probes_per_s":
            rate(probes, "kernels.percolation_clusters"),
        "kernels.metropolis.spin_updates":
            counts["kernels.metropolis.spin_updates"],
        "kernels.metropolis.spin_updates_per_s":
            rate(counts["kernels.metropolis.spin_updates"],
                 "kernels.metropolis_run"),
        "kernels.metropolis.kept_samples":
            counts["kernels.metropolis.kept_samples"],
        "perc.exact_small.configs": counts["perc.exact_small.configs"],
        "perc.exact_small.configs_per_s":
            rate(counts["perc.exact_small.configs"], "perc.exact_small"),
        "ising.exact.configs": counts["ising.exact.configs"],
        "ising.exact.configs_per_s":
            rate(counts["ising.exact.configs"], "ising.exact_ising"),
        "steps.StepDistribution.init_s":
            span("steps.StepDistribution.init", "total_s"),
        "steps.fold.calls": span("steps.fold", "calls"),
        "torus.convolve.calls": span("torus.convolve", "calls"),
        "walk.folded_dhat.calls": span("walk.folded_dhat", "calls"),
        "saw.dfs_nodes": counts["saw.dfs_nodes"],
        "saw.dfs_nodes_per_s":
            rate(counts["saw.dfs_nodes"], "saw.enumerate_walks"),
        "trace.overhead_frac": wall_t / wall_u - 1.0,
        "pass.raw_wall_s": untraced["raw_wall_s"],
        "pass.slowdown": untraced["slowdown"],
    })
    for kind in KINDS:
        m["job.%s_s" % kind] = untraced["kinds"].get(kind, {"s": 0.0})["s"]
    print("passes: 1 untraced %.3f s (raw %.3f s, slowdown %.3f), 1 traced "
          "%.3f s" % (wall_u, untraced["raw_wall_s"], untraced["slowdown"],
                      wall_t))
    return m, outcomes


# -- main ------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc_many_chains", "mc_large_torus",
                             "exact_and_spectral"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_address_space()
    if args.setup_probe:
        with RefClock() as clock:
            import_program()
            set_up(args.workload, args.seed)
            print(clock.now())
        return 0
    import_program()
    import workloads
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    jobs, warm = set_up(args.workload, args.seed)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    checks = workloads.Checks()
    for job, res in warm:
        job.check(job, res, checks)

    if args.trace:
        with RefClock() as clock:
            metrics, outcomes = traced_metrics(jobs, checks, clock)
        units = dict(PER_LAYER)
    else:
        with RefClock() as clock:
            passes, outcomes = untraced_passes(args, jobs, clock)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        # every pass, raw and corrected, so a reader can judge the correction
        print(json.dumps({"passes": passes, "setup_probes_s": setup_samples}))
        print("passes: %d (%d contended), wall s %s (raw %s, slowdown %s); "
              "setup probes s %s" % (
                  len(passes), sum(p["contended"] for p in passes),
                  ["%.3f" % p["wall_s"] for p in passes],
                  ["%.3f" % p["raw_wall_s"] for p in passes],
                  ["%.3f" % p["slowdown"] for p in passes],
                  ["%.3f" % s for s in setup_samples]))
        for kind in KINDS:
            times = [p["kinds"][kind] for p in passes if kind in p["kinds"]]
            if times:
                print("  %s_s  median %.4f s (raw %.4f s)" % (
                    kind, statistics.median(t["s"] for t in times),
                    statistics.median(t["raw_s"] for t in times)))

    for job, res in outcomes:
        job.check(job, res, checks)
    checks.finish()
    named = checks.named()
    failed = [(name, n, bad) for name, n, bad in named if bad]
    unexpected = [name for name, _, bad in failed
                  if not all(workloads.known_defect(name, d) for d in bad)]
    attempted = len(named)
    print("checks: %d attempted (%d instances), %d failed, check_fail_frac "
          "%.6f" % (attempted, len(checks.results), len(failed),
                    len(failed) / attempted))
    for name, n, bad in failed:
        print("  FAIL %s (%d of %d instances)" % (name, len(bad), n))
        for detail in bad:
            defect = workloads.known_defect(name, detail)
            print("    %s%s" % (detail,
                                " [known %s]" % defect if defect else ""))
    for name, value in metrics.items():
        print("  %-42s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
