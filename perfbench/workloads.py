"""The benchmark's workloads: job lists made from a seed, and their checks.

A job is one CLI invocation (through lacelab.cli.main, in process) or one
call of a public library function.  make_jobs(workload, seed, pass_index)
derives every Monte Carlo seed and every instance parameter (z, J, h) from
its arguments, and nothing else; problem sizes are fixed, so each pass does
the same amount of work.  Every job adds exactly one named check, and the
jobs of one group (one instance) add pooled checks at the end.
"""

import functools
import io
import json
import math
import os
import random
import re
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from lacelab import cli, ising, perc, saw, walk
from lacelab.steps import StepDistribution
from lacelab.torus import TorusGrid

import oracles

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Checks that fail at the time the benchmark was written, because of defects
# listed in ROADMAP.md, with the failure detail each defect gives.  They
# still run, count as failed and are printed; a failure that matches its
# detail only leaves `correct` true.  Any other failure of the same check
# (a crash, a bad exit code, another mismatch) is unexpected.  A fix makes
# them pass.
KNOWN_DEFECTS = {
    "ising.g_vs_bruteforce[ising d=2 M=4]": (
        "defect 1: MC g in d >= 2 shifts the flattened index, not the torus",
        r"\d+ of 16 sites beyond 4 combined SE over \d+ jobs"
        r" \(sites \[[\d, ]+\]\)"),
    "exact_ising.vs_transfer_matrix[ring M=18 z=0.1 h=400]": (
        "defect 3: exact Ising overflows to NaN under a strong field",
        r"not finite: chi, m(, g\[\d+\])*"),
}


def known_defect(name: str, detail: str) -> str | None:
    """The defect a failed check shows, or None if the failure is new."""
    if name in KNOWN_DEFECTS:
        defect, pattern = KNOWN_DEFECTS[name]
        if re.fullmatch(pattern, detail):
            return defect
    return None


SIGMAS = 4.0         # statistical checks: within 4 (combined) standard errors
HISTOGRAM_SIGMAS = 5.0   # per bin; a pooled histogram tests many bins at once
MIN_BIN_EXPECTED = 20.0  # rarer cluster sizes are merged into one bin


@dataclass
class Job:
    kind: str                  # perc, ising, exact, beta, saw or diag
    group: str                 # instance name; names the job's checks
    check: object              # checker(job, outcome, checks)
    argv: list | None = None   # CLI arguments
    call: object = None        # library job: zero-argument callable -> dict
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    raw_seconds: float
    rc: int | None = None
    doc: dict | None = None    # the CLI's "result" object or the call's dict
    error: str | None = None
    text: str = ""             # raw output, compared between runs of a job


def run_job(job: Job, clock=time.perf_counter,
            raw_clock=time.perf_counter) -> Outcome:
    """Run one job in process; only the program's own call is timed, by
    clock and by raw_clock."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    t0, r0 = clock(), raw_clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.argv is not None:
                rc = cli.main(job.argv)
            else:
                value = job.call()
                rc = 0
    except Exception as exc:  # a crash or MemoryError fails the job's check
        return Outcome(clock() - t0, raw_clock() - r0,
                       error="%s: %s" % (type(exc).__name__, exc))
    seconds, raw_seconds = clock() - t0, raw_clock() - r0
    if job.argv is None:
        return Outcome(seconds, raw_seconds, rc, value, text=json.dumps(value))
    text = out.getvalue()
    try:
        doc = json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return Outcome(seconds, raw_seconds, rc,
                       error="exit %d without a result: %s"
                       % (rc, err.getvalue().strip()[-300:]), text=text)
    return Outcome(seconds, raw_seconds, rc, doc, text=text)


class Checks:
    """Named pass/fail records, plus pools for checks across a group."""

    def __init__(self):
        self.results = []      # (name, ok, detail)
        self._pools = defaultdict(list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    def pool(self, finisher, group: str, entry):
        self._pools[(finisher, group)].append(entry)

    def finish(self):
        for (finisher, group), entries in self._pools.items():
            finisher(group, entries, self)
        self._pools.clear()

    def failures(self):
        return [(n, d) for n, ok, d in self.results if not ok]

    def named(self):
        """(name, instances, details of the failed ones) per check name, in
        the order first added.  A run counts named checks, not instances:
        how many passes fit in a run varies with the host, the names do not.
        """
        by_name = {}
        for name, ok, detail in self.results:
            entry = by_name.setdefault(name, [0, []])
            entry[0] += 1
            if not ok:
                entry[1].append(detail)
        return [(name, n, bad) for name, (n, bad) in by_name.items()]


# -- shared pieces of the checks ---------------------------------------------

def _nonfinite(value, path=""):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [path or "value"]
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _nonfinite(v, "%s.%s" % (path, k) if path else k)]
    if isinstance(value, (list, tuple)):
        bad = [p for i, v in enumerate(value)
               for p in _nonfinite(v, "%s[%d]" % (path, i))]
        return bad[:3]
    return []


def _ran(res: Outcome, checks: Checks, name: str, rcs=(0,)) -> bool:
    """Add a failed check unless the job ran, exited with an expected code
    and produced only finite numbers."""
    if res.error is not None:
        checks.add(name, False, res.error)
    elif res.rc not in rcs:
        checks.add(name, False, "exit code %d" % res.rc)
    elif _nonfinite(res.doc):
        checks.add(name, False, "not finite: " + ", ".join(_nonfinite(res.doc)))
    else:
        return True
    return False


def _close(a, b, rel=1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _allowed_misses(n: int) -> int:
    # acceptance criterion 7 allows 2 misses in 50 4-SE tests; never fewer
    # than one here, so a group of a few jobs is not judged on one tail event
    return 1 + n // 25


def finish_within_4se(group, flags, checks):
    misses = sum(1 for f in flags if not f)
    allowed = _allowed_misses(len(flags))
    checks.add("cli.within_4se[%s]" % group, misses <= allowed,
               "%d of %d jobs outside 4 SE of the exact chi (allowed %d)"
               % (misses, len(flags), allowed))


def _finish_g(label):
    def finish(group, entries, checks):
        """Pool the MC g of a group's jobs against the exact G, site by site."""
        g = np.array([e[0] for e in entries])
        se = np.array([e[1] for e in entries])
        exact = np.array([e[2] for e in entries])
        diff = (g - exact).sum(axis=0)
        scale = np.sqrt((se ** 2).sum(axis=0))
        bad = [int(x) for x in np.nonzero(
            np.where(scale > 0, np.abs(diff) > SIGMAS * scale,
                     np.abs(diff) > 1e-9))[0]]
        checks.add("ising.g_vs_%s[%s]" % (label, group), not bad,
                   "%d of %d sites beyond %g combined SE over %d jobs%s"
                   % (len(bad), g.shape[1], SIGMAS, len(entries),
                      " (sites %s)" % bad if bad else ""))
    return finish


def finish_ring_law(group, entries, checks):
    """Pooled MC cluster-size histogram against the closed-form ring law."""
    size = max(len(law) for law, _, _ in entries)
    expected, var, observed = np.zeros(size), np.zeros(size), np.zeros(size)
    for law, hist, n in entries:
        expected[:len(law)] += n * law
        var[:len(law)] += n * law * (1.0 - law)
        for k, c in hist.items():
            observed[int(k)] += c
    common = expected >= MIN_BIN_EXPECTED
    bins = [(expected[k], var[k], observed[k]) for k in np.nonzero(common)[0]]
    bins.append((expected[~common].sum(), var[~common].sum(),
                 observed[~common].sum()))
    worst = max(abs(o - e) / math.sqrt(v) if v > 0 else
                (0.0 if o == e else math.inf) for e, v, o in bins)
    checks.add("perc.histogram_vs_ring_law[%s]" % group,
               worst <= HISTOGRAM_SIGMAS,
               "worst bin %.2f SE from the closed form (limit %g)"
               % (worst, HISTOGRAM_SIGMAS))


def _finish_mc_vs(label):
    def finish(group, entries, checks):
        """Each job's MC chi within 4 combined SE of its reference value."""
        misses = sum(1 for chi, se, ref, ref_se in entries
                     if abs(chi - ref) > SIGMAS * math.hypot(se, ref_se))
        allowed = _allowed_misses(len(entries))
        checks.add("%s[%s]" % (label, group), misses <= allowed,
                   "%d of %d jobs outside %g combined SE (allowed %d)"
                   % (misses, len(entries), SIGMAS, allowed))
    return finish


finish_g_transfer = _finish_g("transfer_matrix")
finish_g_bruteforce = _finish_g("bruteforce")
finish_perc_reference = _finish_mc_vs("perc.chi_vs_reference")
finish_ising_transfer = _finish_mc_vs("ising.chi_vs_transfer_matrix")


# -- per-job checkers ----------------------------------------------------------

def check_ran(job, res, checks):
    name = "%s.run[%s]" % (job.kind, job.group)
    if _ran(res, checks, name):
        checks.add(name, True)


def check_perc_ring(job, res, checks):
    name = "perc.exact_vs_ring_law[%s]" % job.group
    if not _ran(res, checks, name, rcs=(0, 2)):
        return
    law = oracles.ring_cluster_law(job.params["M"], job.params["p"])
    chi = float(law @ np.arange(len(law)))
    checks.add(name, _close(res.doc["chi_exact"], chi, 1e-12),
               "CLI chi_exact %r, closed form %r" % (res.doc["chi_exact"], chi))
    checks.pool(finish_within_4se, job.group, res.doc["within_4se"])
    checks.pool(finish_ring_law, job.group,
                (law, res.doc["histogram"], res.doc["samples"]))


def check_perc_exact(job, res, checks):
    name = "perc.run[%s]" % job.group
    if not _ran(res, checks, name, rcs=(0, 2)):
        return
    checks.add(name, "within_4se" in res.doc, "CLI ran its exact oracle")
    checks.pool(finish_within_4se, job.group, res.doc.get("within_4se"))


def check_ising_ring(job, res, checks):
    name = "ising.exact_vs_transfer_matrix[%s]" % job.group
    if not _ran(res, checks, name, rcs=(0, 2)):
        return
    p = job.params
    tm = oracles.ring_ising(p["M"], p["K"], 0.0)
    checks.add(name, _close(res.doc["chi_exact"], tm["chi"], 1e-10),
               "CLI chi_exact %r, transfer matrix %r"
               % (res.doc["chi_exact"], tm["chi"]))
    checks.pool(finish_within_4se, job.group, res.doc["within_4se"])
    checks.pool(finish_g_transfer, job.group,
                (res.doc["g"], res.doc["g_se"], tm["g"]))


def check_ising_torus(job, res, checks):
    name = "ising.exact_vs_bruteforce[%s]" % job.group
    if not _ran(res, checks, name, rcs=(0, 2)):
        return
    p = job.params
    G = oracles.torus_ising_g(p["d"], p["M"], p["K"])
    checks.add(name, _close(res.doc["chi_exact"], float(G.sum()), 1e-10),
               "CLI chi_exact %r, brute force %r"
               % (res.doc["chi_exact"], float(G.sum())))
    checks.pool(finish_within_4se, job.group, res.doc["within_4se"])
    checks.pool(finish_g_bruteforce, job.group,
                (res.doc["g"], res.doc["g_se"], G))


def check_perc_reference(job, res, checks):
    name = "perc.run[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, True)
        ref = job.params["reference"]
        checks.pool(finish_perc_reference, job.group,
                    (res.doc["chi_hat"], res.doc["chi_se"], ref["chi"],
                     ref["se"]))


def check_ising_ring_mc(job, res, checks):
    name = "ising.run[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, True)
        tm = oracles.ring_ising(job.params["M"], job.params["K"], 0.0)
        checks.pool(finish_ising_transfer, job.group,
                    (res.doc["chi_hat"], res.doc["chi_se"], tm["chi"], 0.0))


def check_russo(job, res, checks):
    name = "perc.russo[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, res.doc["match"] and res.doc["upper_holds"],
                   "dchi/dz %r, pivotal sum %r, upper bound holds: %s"
                   % (res.doc["dchi_dz"], res.doc["pivotal_sum"],
                      res.doc["upper_holds"]))


def check_exact_ising(job, res, checks):
    name = "exact_ising.vs_transfer_matrix[%s]" % job.group
    if not _ran(res, checks, name):
        return
    p = job.params
    tm = oracles.ring_ising(p["M"], p["K"], p["h"])
    g_err = float(np.max(np.abs(np.array(res.doc["g"]) - tm["g"])))
    ok = (_close(res.doc["chi"], tm["chi"]) and _close(res.doc["m"], tm["m"])
          and g_err <= 1e-9)
    checks.add(name, ok, "chi %r vs %r, m %r vs %r, max g error %.3g"
               % (res.doc["chi"], tm["chi"], res.doc["m"], tm["m"], g_err))


def check_rw_beta(job, res, checks):
    name = "walk.rw_beta[%s]" % job.group
    if not _ran(res, checks, name):
        return
    doc = res.doc
    ok = doc["consistency_error"] <= 1e-9 * max(1.0, abs(doc["beta_kspace"]))
    detail = "k/x consistency error %.3g" % doc["consistency_error"]
    if job.params.get("family") == "nn":
        dist = StepDistribution("nn", job.params["d"])
        sep = [walk.beta_separable(dist, M, doc["s"])
               for M in doc["M_sequence"]]
        ok = ok and all(_close(b, s) for b, s in zip(doc["beta_sequence"],
                                                     sep))
        detail += "; grid beta %r, separable %r" % (doc["beta_sequence"], sep)
    checks.add(name, ok, detail)


def check_beta_table(job, res, checks):
    name = "walk.beta_table_vs_beta[%s]" % job.group
    if not _ran(res, checks, name):
        return
    worst = 0.0
    for row in res.doc["rows"]:
        rep = walk.beta(StepDistribution("nn", row["d"]),
                        TorusGrid(row["d"], row["M"]), job.params["s"],
                        refinements=1)
        worst = max(worst, abs(row["beta"] - rep.beta_kspace)
                    / max(1.0, abs(rep.beta_kspace)))
    checks.add(name, worst <= 1e-9,
               "separable vs grid beta, worst relative error %.3g" % worst)


def check_infrared(job, res, checks):
    name = "diagnostics.infrared[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, res.doc["sup_deviation"] <= 1e-12,
                   "free-case deviation %.3g" % res.doc["sup_deviation"])


def check_dist(job, res, checks):
    name = "steps.conditions[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, res.doc["ok"], "violations %r"
                   % (res.doc["violations"],))


def check_saw(job, res, checks):
    name = "saw.counts_vs_published[%s]" % job.group
    if not _ran(res, checks, name):
        return
    d = job.params["d"]
    counts = [m * (2 * d) ** n for n, m in enumerate(res.doc["masses"])]
    want = oracles.SAW_COUNTS[d][:len(counts)]
    ok = len(want) == len(counts) and all(
        abs(c - w) <= 1e-9 * w for c, w in zip(counts, want))
    checks.add(name, ok, "counts %r" % [round(c) for c in counts])


def check_lace(job, res, checks):
    name = "saw.lace_reconstruction[%s]" % job.group
    if _ran(res, checks, name):
        checks.add(name, not res.doc["mismatched_n"],
                   "c_{n+1} rebuilt exactly except at n in %r"
                   % res.doc["mismatched_n"])


# -- library jobs --------------------------------------------------------------

def _russo(M: int, z0: float, z: float) -> dict:
    dist = StepDistribution("uniform", 1, L=2)
    cfg = perc.PercConfig(TorusGrid(1, M), dist, z0, 2.0, seed=0)
    rec = perc.russo_check(perc.exact_graph_from_config(cfg), z)
    return {k: (v if isinstance(v, bool) else float(v))
            for k, v in rec.items()}


def _exact_ising(M: int, z: float, J: float, h: float) -> dict:
    Jm = ising.coupling_matrix_from_torus(TorusGrid(1, M),
                                          {(1,): J, (-1,): J})
    s = ising.exact_ising(ising.IsingConfig(J=Jm, z=z, h=h))
    return {"chi": s.chi_hat, "m": s.m_hat, "g": s.g.tolist()}


def _lace(d: int, nmax: int) -> dict:
    series = saw.enumerate_walks(StepDistribution("nn", d), nmax)
    lace = saw.extract_lace(series)
    bad = [n for n in range(nmax)
           if saw.reconstruct_c(series, lace, n) != series.c[n + 1]]
    return {"mismatched_n": bad,
            "pi_masses": {str(m): float(lace.mass(m)) for m in lace.pi}}


# -- job lists -----------------------------------------------------------------

def _jitter(rng, x, frac=0.05):
    return x * (1.0 + frac * (2.0 * rng.random() - 1.0))


def _mc_seed(rng):
    return rng.randrange(1 << 31)


def _perc_argv(family, d, M, z, R, replicas, seed, L=1):
    return ["perc", "--family", family, "--d", str(d), "--L", str(L),
            "--M", str(M), "--z", repr(z), "--R", str(R),
            "--replicas", str(replicas), "--seed", str(seed)]


def _ising_argv(d, M, z, J, sweeps, replicas, seed):
    return ["ising", "--d", str(d), "--M", str(M), "--J", repr(J),
            "--z", repr(z), "--sweeps", str(sweeps), "--burn-in", "500",
            "--thinning", "2", "--replicas", str(replicas),
            "--seed", str(seed)]


def _mc_many_chains(rng):
    jobs = []
    for _ in range(20):
        for M, z0 in ((4, 0.8), (6, 1.0), (8, 0.6)):
            z = _jitter(rng, z0)
            jobs.append(Job("perc", "perc nn d=1 M=%d" % M, check_perc_ring,
                            _perc_argv("nn", 1, M, z, 1, 600, _mc_seed(rng)),
                            params={"M": M, "p": z / 2}))
    for _ in range(6):
        jobs.append(Job("perc", "perc uniform L=2 d=1 M=6", check_perc_exact,
                        _perc_argv("uniform", 1, 6, _jitter(rng, 0.6), 2, 600,
                                   _mc_seed(rng), L=2)))
    for _ in range(8):
        z, J = _jitter(rng, 0.4), _jitter(rng, 1.0)
        jobs.append(Job("ising", "ising d=1 M=6", check_ising_ring,
                        _ising_argv(1, 6, z, J, 3000, 2, _mc_seed(rng)),
                        params={"M": 6, "K": z * J}))
    for _ in range(2):
        z, J = _jitter(rng, 0.3), _jitter(rng, 1.0)
        jobs.append(Job("ising", "ising d=2 M=4", check_ising_torus,
                        _ising_argv(2, 4, z, J, 3000, 2, _mc_seed(rng)),
                        params={"d": 2, "M": 4, "K": z * J}))
    return jobs


def _mc_large_torus(rng):
    jobs = []
    with open(REFERENCE_PATH) as fh:
        references = json.load(fh)["perc"]
    for ref in references:
        jobs.append(Job("perc", "perc nn d=%d M=%d z=%g"
                        % (ref["d"], ref["M"], ref["z"]), check_perc_reference,
                        _perc_argv("nn", ref["d"], ref["M"], ref["z"], 1,
                                   5000, _mc_seed(rng)),
                        params={"reference": ref}))
    for _ in range(2):
        z, J = rng.uniform(0.3, 0.5), rng.uniform(0.8, 1.2)
        jobs.append(Job("ising", "ising d=1 M=64", check_ising_ring_mc,
                        _ising_argv(1, 64, z, J, 2000, 1, _mc_seed(rng)),
                        params={"M": 64, "K": z * J}))
    return jobs


def _exact_and_spectral(rng):
    jobs = []
    for M, z0 in ((6, 0.6), (8, 0.5)):
        z = z0 * rng.uniform(0.2, 0.9)
        jobs.append(Job("exact", "russo uniform L=2 d=1 M=%d" % M,
                        check_russo,
                        call=functools.partial(_russo, M, z0, z)))
    rings = [("ring M=16", 16, rng.uniform(0.2, 0.6), rng.uniform(0.8, 1.2),
              0.0),
             ("ring M=18 weak field", 18, rng.uniform(0.2, 0.5),
              rng.uniform(0.8, 1.2), rng.uniform(0.05, 0.3)),
             ("ring M=18 z=0.1 h=400", 18, 0.1, 1.0, 400.0)]
    for group, M, z, J, h in rings:
        jobs.append(Job("exact", group, check_exact_ising,
                        call=functools.partial(_exact_ising, M, z, J, h),
                        params={"M": M, "K": z * J, "h": h}))
    for d, s, trunc in ((3, 2, 48), (4, 3, 16)):
        jobs.append(Job("beta", "power alpha=1.2 d=%d" % d, check_rw_beta,
                        ["rw-beta", "--family", "power", "--alpha", "1.2",
                         "--d", str(d), "--truncation", str(trunc),
                         "--s", str(s), "--M", "8"]))
    jobs.append(Job("beta", "nn d=5", check_rw_beta,
                    ["rw-beta", "--family", "nn", "--d", "5", "--s", "2",
                     "--M", "8,16,32"], params={"family": "nn", "d": 5}))
    jobs.append(Job("beta", "nn d=3,4,5 M=16", check_beta_table,
                    ["beta-table", "--family", "nn", "--s", "2",
                     "--d-values", "3,4,5", "--M", "16"], params={"s": 2}))
    jobs.append(Job("diag", "power alpha=1.2 d=2 M=16", check_ran,
                    ["diag", "--family", "power", "--alpha", "1.2", "--d", "2",
                     "--M", "16", "--z", repr(rng.uniform(0.3, 0.7))]))
    jobs.append(Job("diag", "nn d=3 M=16", check_infrared,
                    ["infrared", "--family", "nn", "--d", "3", "--M", "16",
                     "--z", repr(rng.uniform(0.3, 0.7)), "--assert-free"]))
    jobs.append(Job("diag", "uniform L=2 d=2", check_dist,
                    ["dist-check", "--family", "uniform", "--d", "2",
                     "--L", "2"]))
    for d, nmax, zmax in ((2, 12, 0.3), (3, 8, 0.15)):
        jobs.append(Job("saw", "nn d=%d n=%d" % (d, nmax), check_saw,
                        ["saw", "--family", "nn", "--d", str(d),
                         "--nmax", str(nmax),
                         "--z", repr(rng.uniform(0.5, 1.0) * zmax)],
                        params={"d": d}))
    jobs.append(Job("saw", "nn d=2 n=9", check_lace,
                    call=functools.partial(_lace, 2, 9)))
    return jobs


WORKLOADS = {
    "mc_many_chains": _mc_many_chains,
    "mc_large_torus": _mc_large_torus,
    "exact_and_spectral": _exact_and_spectral,
}


def make_jobs(workload: str, seed: int, pass_index: int) -> list:
    """The job list of one pass; equal arguments give equal jobs."""
    return WORKLOADS[workload](
        random.Random("%s:%d:%d" % (workload, seed, pass_index)))


# Tiny jobs run once before timing, one per kind a workload uses.
_WARMUP = {
    "perc": Job("perc", "warm-up", check_ran,
                _perc_argv("nn", 1, 4, 0.5, 1, 20, 0)),
    "ising": Job("ising", "warm-up", check_ran,
                 ["ising", "--d", "1", "--M", "4", "--z", "0.3",
                  "--sweeps", "40", "--burn-in", "10", "--seed", "0"]),
    "exact": Job("exact", "warm-up", check_ran,
                 call=functools.partial(_exact_ising, 4, 0.3, 1.0, 0.0)),
    "beta": Job("beta", "warm-up", check_ran,
                ["rw-beta", "--family", "nn", "--d", "2", "--s", "2",
                 "--M", "4"]),
    "saw": Job("saw", "warm-up", check_ran,
               ["saw", "--family", "nn", "--d", "2", "--nmax", "3"]),
    "diag": Job("diag", "warm-up", check_ran,
                ["diag", "--family", "nn", "--d", "2", "--M", "4",
                 "--z", "0.3"]),
}


def warmup_jobs(jobs: list) -> list:
    kinds = {job.kind for job in jobs}
    return [job for kind, job in _WARMUP.items() if kind in kinds]
