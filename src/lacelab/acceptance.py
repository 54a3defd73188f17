"""The acceptance suite: eleven checks with fixed tolerances.

Each criterion function returns {"passed": bool, ...details}; run_all
collects them in order.  The tests and the `acceptance` CLI subcommand both
call into this module so there is exactly one definition of "passing".
"""

import math
from fractions import Fraction

import numpy as np

from . import diagnostics as dg
from . import ising as isg
from . import perc as pc
from . import saw as sw
from . import walk as wk
from .steps import StepDistribution
from .torus import TorusField, TorusGrid


def criterion_1_fourier_closed_form(n_points: int = 10_000) -> dict:
    """NN transform: closed form vs generic support sum at random k, 1e-14."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for d in (1, 2, 5):
        dist = StepDistribution("nn", d)
        ks = rng.uniform(-np.pi, np.pi, size=(n_points, d))
        closed = np.mean(np.cos(ks), axis=1)
        generic = dist.fourier_d_support_sum(ks)
        worst = max(worst, float(np.max(np.abs(closed - generic))))
    return {"passed": worst <= 1e-14, "max_error": worst}


def criterion_2_return_probability() -> dict:
    """NN d=1 four-step return probability vs the binomial oracle, 1e-12."""
    dist = StepDistribution("nn", 1)
    grid = TorusGrid(1, 8)
    conv = wk.return_probability(dist, grid, 4)
    binomial = math.comb(4, 2) / 2 ** 4
    err = abs(conv - binomial)
    kspace = wk.return_probability_kspace(dist, grid, 4)
    return {"passed": err <= 1e-12 and abs(kspace - binomial) <= 1e-12,
            "convolution": conv, "binomial": binomial, "kspace": kspace}


BETA_COMBOS = [
    # (family, d, L, alpha, s, M, refinements, expect_divergent)
    ("nn", 1, 1, None, 2, 8, 3, True),
    ("nn", 5, 1, None, 2, 6, 3, False),
    ("nn", 7, 1, None, 3, 6, 1, None),
    ("uniform", 5, 3, None, 2, 8, 1, None),
    ("power", 4, 1, 1.2, 3, 8, 1, None),
    ("power", 3, 1, 1.2, 3, 6, 3, True),
]


def criterion_3_beta_consistency() -> dict:
    rows = []
    ok = True
    for family, d, L, alpha, s, M, refinements, expect in BETA_COMBOS:
        radius = 16 if family == "power" else None
        dist = StepDistribution(family, d, L=L, alpha=alpha,
                                support_radius=radius)
        rep = wk.beta(dist, TorusGrid(d, M), s, refinements=refinements)
        err = abs(rep.beta_kspace - rep.beta_xspace)
        row_ok = err <= 1e-9
        if expect is not None:
            row_ok = row_ok and rep.divergent == expect
        ok = ok and row_ok
        rows.append({"family": family, "d": d, "s": s, "M": M,
                     "consistency_error": err, "divergent": rep.divergent,
                     "analytic_finite": rep.analytic_finite, "ok": row_ok})
    return {"passed": ok, "rows": rows}


def criterion_4_scaling() -> dict:
    nn_rows = wk.beta_scaling_table("nn", 2, {"d_values": [9, 10, 11, 12, 13],
                                              "M": 16})
    scaled = [r["scaled"] for r in nn_rows]
    nn_ok = all(scaled[i + 1] <= scaled[i] + 1e-12
                for i in range(len(scaled) - 1))
    u_rows = wk.beta_scaling_table("uniform", 2,
                                   {"d": 5, "L_values": [1, 2, 4, 8], "M": 32})
    u_scaled = [r["scaled"] for r in u_rows]
    ratio = max(u_scaled) / min(u_scaled)
    return {"passed": nn_ok and ratio <= 3.0,
            "nn_scaled": scaled, "nn_monotone": nn_ok,
            "uniform_scaled": u_scaled, "uniform_ratio": ratio}


def _count_saws(d: int, n: int) -> int:
    """Independent pure-counting DFS over nearest-neighbor steps."""
    steps = []
    for a in range(d):
        for sgn in (1, -1):
            v = [0] * d
            v[a] = sgn
            steps.append(tuple(v))
    origin = (0,) * d
    count = 0
    path = {origin}

    def rec(x, rem):
        nonlocal count
        if rem == 0:
            count += 1
            return
        for st in steps:
            y = tuple(p + q for p, q in zip(x, st))
            if y not in path:
                path.add(y)
                rec(y, rem - 1)
                path.discard(y)

    rec(origin, n)
    return count


def criterion_5_saw_counts() -> dict:
    series = sw.enumerate_walks(StepDistribution("nn", 2), 6, mode="rational")
    ok = True
    counts = []
    for n in range(1, 7):
        got = series.mass(n) * Fraction(4) ** n
        want = _count_saws(2, n)
        counts.append((n, int(got), want))
        ok = ok and got == want
    series1 = sw.enumerate_walks(StepDistribution("nn", 1), 25,
                                 mode="rational")
    chi = sw.chi_series(series1, 1.0)
    closed = (2.0 + 1.0) / (2.0 - 1.0)
    remainder = abs(chi["chi"] - closed)
    ok = ok and remainder < 1e-6
    return {"passed": ok, "counts": counts, "chi_remainder": remainder}


def criterion_6_lace_reconstruction() -> dict:
    series = sw.enumerate_walks(StepDistribution("nn", 2), 8, mode="rational")
    lace = sw.extract_lace(series)
    ok = lace.pi[2].get((0, 0)) == Fraction(-1, 4)
    ok = ok and all(v == Fraction(0)
                    for x, v in lace.pi[2].items() if x != (0, 0))
    for n in range(1, series.n_max):
        rebuilt = sw.reconstruct_c(series, lace, n)
        truth = {x: v for x, v in series.c[n + 1].items() if v != 0}
        ok = ok and rebuilt == truth
    return {"passed": ok, "pi2_origin": str(lace.pi[2].get((0, 0)))}


PERC_INSTANCES = [
    # (d, M, family, L, z, R)
    (1, 4, "nn", 1, 0.8, 1.0),
    (1, 6, "nn", 1, 1.0, 1.0),
    (1, 8, "nn", 1, 0.6, 1.0),
    (1, 8, "uniform", 2, 0.5, 2.0),
    (1, 6, "uniform", 2, 0.6, 2.0),
]


def criterion_7_percolation(n_seeds: int = 50, replicas: int = 600) -> dict:
    details = []
    all_ok = True
    for (d, M, family, L, z, R) in PERC_INSTANCES:
        dist = StepDistribution(family, d, L=L)
        grid = TorusGrid(d, M)
        cfg0 = pc.PercConfig(grid, dist, z, R, seed=0, replicas=replicas)
        graph = pc.exact_graph_from_config(cfg0)
        exact = pc.exact_small(graph, z, pivotal=False)
        hits = 0
        for seed in range(n_seeds):
            cfg = pc.PercConfig(grid, dist, z, R, seed=seed,
                                replicas=replicas)
            stats = pc.sample_cluster(cfg)
            if abs(stats.chi_hat - exact["chi"]) <= 4.0 * stats.chi_se:
                hits += 1
        inst_ok = hits >= 48
        # Russo identity and tree-graph bound on a z grid
        z_grid = [0.2 * z, 0.5 * z, 0.8 * z]
        for zz in z_grid:
            rc = pc.russo_check(graph, zz)
            inst_ok = inst_ok and rc["match"] and rc["upper_holds"]
        all_ok = all_ok and inst_ok
        details.append({"instance": (d, M, family, L, z), "hits": hits,
                        "chi_exact": exact["chi"], "ok": inst_ok})
    return {"passed": all_ok, "instances": details}


def criterion_8_ising(n_seeds: int = 50) -> dict:
    # exact two-site identity
    J = 1.3
    z = 0.7
    two = isg.exact_ising(isg.IsingConfig(J=[[0.0, J], [J, 0.0]], z=z))
    ident_err = abs(two.g[1] - math.tanh(z * J))
    ok = ident_err <= 1e-12

    # Metropolis vs exact on a 6-site ring
    grid = TorusGrid(1, 6)
    table = {(1,): 1.0, (-1,): 1.0}
    Jm = isg.coupling_matrix_from_torus(grid, table)
    exact = isg.exact_ising(isg.IsingConfig(J=Jm, z=0.4))
    hits = 0
    for seed in range(n_seeds):
        samp = isg.metropolis(isg.IsingConfig(
            J=Jm, z=0.4, sweeps=3000, burn_in=500, thinning=2,
            seed=seed, replicas=2, grid=grid))
        if abs(samp.chi_hat - exact.chi_hat) <= 4.0 * samp.chi_se:
            hits += 1
    ok = ok and hits >= 48

    # single-step bound, pointwise on exact instances
    for M, zz in ((4, 0.3), (6, 0.5), (8, 0.2)):
        g = TorusGrid(1, M)
        Jmat = isg.coupling_matrix_from_torus(g, table)
        cfg = isg.IsingConfig(J=Jmat, z=zz)
        sample = isg.exact_ising(cfg)
        rec = isg.tau_and_g_relation_check(cfg, sample, g, table,
                                           sigma_slack=0.0)
        ok = ok and rec["holds"]
    return {"passed": ok, "two_site_error": ident_err, "hits": hits}


def criterion_9_bootstrap_base() -> dict:
    dist = StepDistribution("nn", 2)
    grid = TorusGrid(2, 8)
    base = dg.free_two_point(dist, grid, 0.0)
    f1, f2, f3, _ = dg.bootstrap_f(base)
    ok = f1 == 0.0 and abs(f2 - 1.0) <= 1e-15 and f3 == 0.0
    deviations = []
    for z10 in range(1, 10):
        z = z10 / 10.0
        inp = dg.free_two_point(dist, grid, z)
        dev = dg.infrared_check(inp)
        f2z = float(np.max(inp.ghat / inp.c_lambda()))
        deviations.append(dev)
        ok = ok and dev <= 1e-12 and abs(f2z - 1.0) <= 1e-12
    return {"passed": ok, "base": (f1, f2, f3),
            "max_infrared_dev": max(deviations)}


def criterion_10_inequalities(n_random: int = 100) -> dict:
    rng = np.random.default_rng(10)
    violations = {}

    def rand_symmetric_field(grid, scale):
        half = rng.uniform(-1.0, 1.0, grid.M // 2 + 1)
        vals = np.array([half[min(x, grid.M - x)] for x in range(grid.M)])
        s = np.sum(np.abs(vals))
        if s > 0:
            vals *= rng.uniform(0.05, scale) / s
        return TorusField(grid, vals, "x")

    grid1 = TorusGrid(1, 12)
    # trig second-difference lemma, exhaustive (k, l) per instance
    bad = 0
    for _ in range(n_random):
        a = rand_symmetric_field(grid1, 0.95)
        for k in range(grid1.M):
            for l in range(grid1.M):
                if not dg.trig_lemma_check(a, (k,), (l,))["holds"]:
                    bad += 1
    violations["trig_lemma"] = bad

    # |Delta_k ghat| vs the cosine-weighted l1 norm
    grid16 = TorusGrid(1, 16)
    bad = 0
    for _ in range(n_random):
        g = rand_symmetric_field(grid16, 3.0)
        for k in range(grid16.M):
            for l in range(grid16.M):
                if not dg.delta_vs_cos_sum_check(g, (k,), (l,))["holds"]:
                    bad += 1
    violations["delta_vs_cos"] = bad

    # cosine splitting
    bad = 0
    for _ in range(n_random):
        parts = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 8))
        if not dg.cos_split_check(parts)["holds"]:
            bad += 1
    violations["cos_split"] = bad

    # 0 <= C_lambda (1 - Dhat) <= 2
    bad = 0
    for _ in range(n_random):
        lam = rng.uniform(0.0, 1.0)
        dhat = rng.uniform(-1.0, 1.0, size=64)
        if not dg.c_lambda_identity_check(dhat, lam)["holds"]:
            bad += 1
    violations["c_lambda_identity"] = bad

    # free-model inputs for the diagram inequalities
    free_inputs = []
    for _ in range(n_random):
        d = int(rng.integers(1, 3))
        M = int(rng.choice([8, 12, 16]))
        z = float(rng.uniform(0.05, 0.6))
        dist = StepDistribution("nn", d)
        free_inputs.append(dg.free_two_point(dist, TorusGrid(d, M), z))

    bad = 0
    for inp in free_inputs:
        if not dg.open_vs_closed_bubble_check(inp)["holds"]:
            bad += 1
    violations["open_vs_closed_bubble"] = bad

    bad = 0
    for inp in free_inputs:
        chain = dg.chain_of_bubbles(inp)
        if chain["converged"] and not chain["bound_holds"]:
            bad += 1
    violations["bubble_chain"] = bad

    bad = 0
    for inp in free_inputs:
        f1, f2, f3, _ = dg.bootstrap_f(inp)
        K = max(f1, f2, f3)
        for _ in range(3):
            k = tuple(int(v) for v in rng.integers(0, inp.grid.M,
                                                   size=inp.grid.d))
            if not dg.cos_g_bound_check(inp, k, K)["holds"]:
                bad += 1
    violations["cos_g_bound"] = bad

    total = sum(violations.values())
    return {"passed": total == 0, "violations": violations}


def criterion_11_magnetization_sandwich() -> dict:
    graph = pc.ExactGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
    ok = True
    rows = []
    for z in (0.6, 1.0):
        rec = pc.exact_small(graph, z, pivotal=False)
        for n in (2, 3):
            m = pc.magnetization_tail(rec["size_law"], n)
            rows.append({"z": z, "n": n, "tail": m["tail"],
                         "upper": m["upper"],
                         "upper_holds": m["upper_holds"],
                         "lower_holds": m["lower_holds"]})
            ok = ok and m["upper_holds"] and m["lower_holds"]
    # a second instance: 4-cycle at two z values
    g4 = pc.ExactGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5),
                           (3, 0, 0.5)])
    for z in (0.8, 1.2):
        rec = pc.exact_small(g4, z, pivotal=False)
        for n in (2, 3):
            m = pc.magnetization_tail(rec["size_law"], n)
            ok = ok and m["upper_holds"] and m["lower_holds"]
    return {"passed": ok, "rows": rows}


CRITERIA = [
    (1, "nn transform closed form at random k (1e-14)",
     criterion_1_fourier_closed_form),
    (2, "four-step return probability 3/8 (1e-12)",
     criterion_2_return_probability),
    (3, "beta k-space/x-space consistency and divergence flags",
     criterion_3_beta_consistency),
    (4, "beta scaling: d*beta non-increasing, L^5*beta bounded",
     criterion_4_scaling),
    (5, "SAW counts vs counting oracle; d=1 chi series limit",
     criterion_5_saw_counts),
    (6, "lace coefficients reconstruct the series exactly",
     criterion_6_lace_reconstruction),
    (7, "percolation MC vs exact oracle; Russo; tree-graph bound",
     criterion_7_percolation),
    (8, "Ising exact two-site identity; Metropolis vs exact; single-step",
     criterion_8_ising),
    (9, "bootstrap base point and free-model infrared identity",
     criterion_9_bootstrap_base),
    (10, "standalone inequality suites, zero violations",
     criterion_10_inequalities),
    (11, "cluster-tail magnetization sandwich",
     criterion_11_magnetization_sandwich),
]


def run_all(verbose: bool = True) -> dict:
    results = []
    all_ok = True
    for num, name, fn in CRITERIA:
        res = fn()
        results.append({"criterion": num, "name": name,
                        "passed": res["passed"]})
        all_ok = all_ok and res["passed"]
        if verbose:
            print("%s criterion %2d: %s"
                  % ("PASS" if res["passed"] else "FAIL", num, name))
    return {"passed": all_ok, "results": results}
