"""Check how well refclock's load correction fits a workload's code mix.

    python3 perfbench/clock_check.py --workload exact_and_spectral --rounds 20

The correction assumes that the program slows down under host load by the
same factor as refclock's calibration loop.  This script runs the pass-0 job
list of a workload ROUNDS times under one RefClock and, for each job group,
fits  time / median time = a + b (slowdown - 1)  over the rounds, once for
the corrected and once for the raw time, where slowdown is the job's raw
time over its corrected time.  A corrected slope b near 0 means the
correction removes host load from that code; b < 0 means the code slows
less than the calibration loop, so its corrected time reads low while the
host is loaded.  Host load comes and goes on its own: the fit means
something only when the slowdowns printed span well above 1.
"""

import argparse
import statistics
import sys

import run  # first: it pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402

from refclock import RefClock  # noqa: E402


def fit_slope(times, slowdowns) -> tuple:
    """Slope of time / median time against slowdown - 1, and its SE."""
    y = np.asarray(times) / statistics.median(times)
    x = np.asarray(slowdowns) - 1.0
    A = np.vstack([np.ones_like(x), x]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ coef
    spread = ((x - x.mean()) ** 2).sum()
    se = (np.sqrt(resid.var(ddof=2) / spread)
          if len(x) > 2 and spread > 0 else float("nan"))
    return float(coef[1]), float(se)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc_many_chains", "mc_large_torus",
                             "exact_and_spectral"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    run.limit_address_space()
    run.import_program()
    import workloads
    jobs, _ = run.set_up(args.workload, args.seed)
    times = {}  # group -> [(corrected s, raw s)]
    with RefClock() as clock:
        for r in range(args.rounds):
            for job in jobs:
                res = workloads.run_job(job, clock.now, clock.raw_now)
                times.setdefault((job.kind, job.group), []).append(
                    (res.seconds, res.raw_seconds))
            print("round %d of %d" % (r + 1, args.rounds), flush=True)
    print("%-6s %-30s %16s %15s %8s" % ("kind", "group", "slowdown min-max",
                                         "corrected b", "raw b"))
    for (kind, group), rows in times.items():
        corrected = [c for c, _ in rows]
        raw = [w for _, w in rows]
        slowdowns = [w / c for c, w in rows]
        b, se = fit_slope(corrected, slowdowns)
        print("%-6s %-30s %7.2f - %6.2f %7.3f ± %5.3f %8.3f" % (
            kind, group, min(slowdowns), max(slowdowns), b, se,
            fit_slope(raw, slowdowns)[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
