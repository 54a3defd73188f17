"""Command-line front end.

Every run writes a JSON result document containing {spec, version, seed,
result}; the document itself carries no timestamp, so identical spec + seed
gives byte-identical output.  Wall-clock metadata goes to a sidecar
<out>.meta.json.  beta-table can additionally write its rows as a CSV table.
Exit codes: 0 success, 1 validation error, 2 an asserted check failed.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

from . import __version__
from . import acceptance as acc
from . import diagnostics as dg
from . import ising as isg
from . import perc as pc
from . import saw as sw
from . import walk as wk
from .steps import StepDistribution, verify_conditions
from .torus import TorusGrid


class CheckFailed(Exception):
    pass


def _dist_from_args(args) -> StepDistribution:
    return StepDistribution(args.family, args.d, L=args.L, alpha=args.alpha,
                            support_radius=args.truncation)


def _add_dist_args(p, required=True):
    p.add_argument("--family", choices=["nn", "uniform", "power"],
                   required=required)
    p.add_argument("--d", type=int, required=required)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--truncation", type=int, default=None)


def _add_out_args(p):
    p.add_argument("--out", default=None,
                   help="output JSON path (default: stdout, or "
                        "$LACELAB_OUT_DIR/<subcommand>.json if set)")


def _emit(args, subcommand: str, spec: dict, seed, result: dict):
    doc = {"subcommand": subcommand, "spec": spec, "seed": seed,
           "version": __version__, "result": result}
    # allow_nan=False: NaN or an infinity raises ValueError (exit 1) rather
    # than printing JSON that standard parsers reject
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    out = args.out
    if out is None and os.environ.get("LACELAB_OUT_DIR"):
        out = os.path.join(os.environ["LACELAB_OUT_DIR"],
                           subcommand + ".json")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        with open(out + ".meta.json", "w") as fh:
            json.dump({"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")},
                      fh)
    else:
        print(text)


def cmd_dist_check(args):
    dist = _dist_from_args(args)
    rep = verify_conditions(dist, grid_res=args.grid_res, eps=args.eps)
    result = {
        "c1_hat": rep.c1_hat, "c2_hat": rep.c2_hat, "sup_d": rep.sup_d,
        "moment_table": [[k, v] for k, v in rep.moment_table],
        "ok": rep.ok, "violations": rep.violations,
        "tail_bound": dist.tail_bound,
        "uncertainty": "exact up to grid resolution and reported tail bound",
    }
    _emit(args, "dist-check", {**dist.to_spec(), "grid_res": args.grid_res,
                               "eps": args.eps}, None, result)
    if not rep.ok:
        raise CheckFailed("a positivity condition failed on the grid")


def cmd_rw_beta(args):
    dist = _dist_from_args(args)
    ms = [int(m) for m in args.M.split(",")]
    rep = wk.beta_on_grids(dist, [TorusGrid(args.d, m) for m in ms], args.s)
    betas = [b for _, b in rep.refinement]
    result = {
        "s": args.s, "M_sequence": ms,
        "beta_sequence": betas,
        "beta_kspace": rep.beta_kspace, "beta_xspace": rep.beta_xspace,
        "consistency_error": abs(rep.beta_kspace - rep.beta_xspace),
        "divergent": rep.divergent,
        "analytic_threshold": rep.analytic_threshold,
        "analytic_finite": rep.analytic_finite,
        "zero_mode_policy": rep.zero_mode_policy,
        "uncertainty": "truncation: grid refinement sequence reported; "
                       "tail bound %.3g" % dist.tail_bound,
    }
    _emit(args, "rw-beta", {**dist.to_spec(), "s": args.s, "M": ms}, None,
          result)


def cmd_beta_table(args):
    foreign = {"nn": ["d", "L_values", "alpha"],
               "uniform": ["d_values", "alpha"],
               "power": ["d_values"]}[args.family]
    for name in foreign:
        if getattr(args, name) is not None:
            raise ValueError("--%s does not apply to the %s family"
                             % (name.replace("_", "-"), args.family))
    if args.family == "nn":
        d_values = ("9,10,11,12,13" if args.d_values is None
                    else args.d_values)
        sweep = {"d_values": [int(v) for v in d_values.split(",")],
                 "M": args.M}
    else:
        L_values = "1,2,4,8" if args.L_values is None else args.L_values
        sweep = {"d": 5 if args.d is None else args.d, "L_values":
                 [int(v) for v in L_values.split(",")], "M": args.M}
        if args.alpha is not None:
            sweep["alpha"] = args.alpha
    rows = wk.beta_scaling_table(args.family, args.s, sweep)
    result = {"rows": rows,
              "uncertainty": "exact on the stated grid; fixed M across sweep"}
    _emit(args, "beta-table", {"family": args.family, "s": args.s,
                               "sweep": sweep}, None, result)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def cmd_saw(args):
    dist = _dist_from_args(args)
    series = sw.enumerate_walks(dist, args.nmax, mode=args.mode,
                                support_radius=args.support_radius)
    chi = sw.chi_series(series, args.z)
    lace = sw.extract_lace(series) if args.nmax >= 2 else None
    result = {
        "masses": [float(m) for m in series.masses()],
        "chi": chi["chi"],
        # null when unbounded: no radius estimate, or z at or beyond it
        "chi_remainder": chi["remainder"] if math.isfinite(chi["remainder"])
        else None,
        "zc": chi["zc"], "warning": chi["warning"],
        "bubble": sw.bubble_saw(series, args.z),
        "pi_masses": {str(m): float(lace.mass(m)) for m in lace.kernels}
        if lace else None,
        "weight_loss": series.weight_loss,
        "uncertainty": "series truncation remainder reported",
    }
    _emit(args, "saw", {**dist.to_spec(), "nmax": args.nmax,
                        "mode": args.mode, "z": args.z,
                        "support_radius": args.support_radius}, None, result)


def cmd_perc(args):
    dist = _dist_from_args(args)
    grid = TorusGrid(args.d, args.M)
    cfg = pc.PercConfig(grid, dist, args.z, args.R, seed=args.seed,
                        replicas=args.replicas)
    stats = pc.sample_cluster(cfg)
    result = {
        "chi_hat": stats.chi_hat, "chi_se": stats.chi_se,
        "theta_hat": stats.theta_hat,
        "histogram": {str(k): v for k, v in sorted(stats.histogram.items())},
        "e_R": stats.e_R, "samples": stats.samples,
        "uncertainty": "standard error (batch means)",
    }
    if grid.n_sites <= 64:
        graph = pc.exact_graph_from_config(cfg)
        if len(graph.bonds) <= pc.EXACT_BOND_LIMIT:
            exact = pc.exact_small(graph, args.z, pivotal=False)
            result["chi_exact"] = exact["chi"]
            # chi_hat, a mean of cluster sizes, moves in steps of 1/samples;
            # when every sample is alike SE = 0 and a rounding gap would fail
            result["within_4se"] = bool(
                abs(stats.chi_hat - exact["chi"])
                <= max(4 * stats.chi_se, 1.0 / stats.samples))
    _emit(args, "perc", {**dist.to_spec(), "M": args.M, "z": args.z,
                         "R": args.R, "replicas": args.replicas},
          args.seed, result)
    if result.get("within_4se") is False:
        raise CheckFailed("MC estimate outside 4 standard errors of exact")


def cmd_ising(args):
    grid = TorusGrid(args.d, args.M)
    offs, _ = StepDistribution("nn", args.d).support()
    table = dict.fromkeys(map(tuple, offs.tolist()), args.J)
    Jm = isg.coupling_matrix_from_torus(grid, table)
    cfg = isg.IsingConfig(J=Jm, z=args.z, h=args.h, sweeps=args.sweeps,
                          burn_in=args.burn_in, thinning=args.thinning,
                          seed=args.seed, replicas=args.replicas, grid=grid)
    samp = isg.metropolis(cfg)
    result = {
        "chi_hat": samp.chi_hat, "chi_se": samp.chi_se,
        "m_hat": samp.m_hat, "m_se": samp.m_se,
        "g": samp.g.tolist(), "g_se": samp.g_se.tolist(),
        "equilibrated": samp.equilibrated,
        "samples": samp.samples,
        "uncertainty": "standard error (batch means)",
    }
    if grid.n_sites <= isg.EXACT_SPIN_LIMIT:
        exact = isg.exact_ising(isg.IsingConfig(J=Jm, z=args.z, h=args.h))
        result["chi_exact"] = exact.chi_hat
        # chi per sample moves in steps of 1/n_sites and chi_hat in steps of
        # 1/(n_sites samples); when every sample is alike SE = 0 and a
        # rounding gap would fail
        result["within_4se"] = bool(
            abs(samp.chi_hat - exact.chi_hat)
            <= max(4 * samp.chi_se, 1.0 / (grid.n_sites * samp.samples)))
    _emit(args, "ising", {"d": args.d, "M": args.M, "J": args.J, "z": args.z,
                          "h": args.h, "sweeps": args.sweeps,
                          "burn_in": args.burn_in, "thinning": args.thinning,
                          "replicas": args.replicas},
          args.seed, result)
    if result.get("within_4se") is False:
        raise CheckFailed("MC estimate outside 4 standard errors of exact")


def cmd_diag(args):
    if args.input:
        # hashlib loads OpenSSL, about 4 MB, which no other run needs
        import hashlib
        with open(args.input, "rb") as fh:
            raw = fh.read()
        inp = dg.deserialize_input(json.loads(raw))
        spec = {"input": args.input,
                "input_sha256": hashlib.sha256(raw).hexdigest()}
    elif args.family is None or args.d is None:
        raise ValueError("diag needs either --input or --family/--d")
    else:
        dist = _dist_from_args(args)
        inp = dg.free_two_point(dist, TorusGrid(args.d, args.M), args.z)
        spec = {**dist.to_spec(), "M": args.M, "z": args.z, "source": "free"}
    rep = dg.diagram_report(inp)
    result = {
        "B": rep.B, "T": rep.T, "nabla": rep.nabla, "B_tilde": rep.B_tilde,
        "psi_mass": rep.psi_mass, "f1": rep.f1, "f2": rep.f2, "f3": rep.f3,
        "infrared_sup": rep.infrared_sup, "flags": rep.flags,
        "uncertainty": "exact on the stated grid",
    }
    _emit(args, "diag", spec, None, result)


def cmd_infrared(args):
    dist = _dist_from_args(args)
    inp = dg.free_two_point(dist, TorusGrid(args.d, args.M), args.z)
    dev = dg.infrared_check(inp)
    result = {"sup_deviation": dev, "chi": inp.chi, "tau": inp.tau,
              "uncertainty": "exact on the stated grid"}
    _emit(args, "infrared", {**dist.to_spec(), "M": args.M, "z": args.z},
          None, result)
    if args.assert_free and dev > 1e-12:
        raise CheckFailed("free-model infrared identity violated")


def cmd_acceptance(args):
    summary = acc.run_all()
    _emit(args, "acceptance", {}, None, summary)
    if not summary["passed"]:
        raise CheckFailed("acceptance suite failed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lacelab",
        description="numerical laboratory for lattice models and their "
                    "diagram/inequality machinery")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dist-check", help="verify step-distribution conditions")
    _add_dist_args(p)
    p.add_argument("--grid-res", type=int, default=16)
    p.add_argument("--eps", type=float, default=0.1)
    _add_out_args(p)
    p.set_defaults(fn=cmd_dist_check)

    p = sub.add_parser("rw-beta", help="random-walk beta on a grid sequence")
    _add_dist_args(p)
    p.add_argument("--s", type=int, choices=[2, 3], required=True)
    p.add_argument("--M", default="8,16,32",
                   help="comma-separated grid side lengths")
    _add_out_args(p)
    p.set_defaults(fn=cmd_rw_beta)

    p = sub.add_parser("beta-table", help="beta scaling sweep")
    p.add_argument("--family", choices=["nn", "uniform", "power"],
                   required=True)
    p.add_argument("--s", type=int, choices=[2, 3], required=True)
    # each family reads its own sweep flags and rejects the others
    p.add_argument("--d", type=int, default=None,
                   help="uniform, power (default 5)")
    p.add_argument("--d-values", default=None,
                   help="nn (default 9,10,11,12,13)")
    p.add_argument("--L-values", default=None,
                   help="uniform, power (default 1,2,4,8)")
    p.add_argument("--alpha", type=float, default=None, help="power")
    p.add_argument("--M", type=int, default=16)
    _add_out_args(p)
    p.add_argument("--csv", default=None, help="optional CSV table path")
    p.set_defaults(fn=cmd_beta_table)

    p = sub.add_parser("saw", help="exact SAW enumeration and lace extraction")
    _add_dist_args(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--mode", choices=["rational", "double"],
                   default="rational")
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--support-radius", type=float, default=None)
    _add_out_args(p)
    p.set_defaults(fn=cmd_saw)

    p = sub.add_parser("perc", help="percolation cluster Monte Carlo")
    _add_dist_args(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--replicas", type=int, default=400)
    p.add_argument("--seed", type=int, required=True)
    _add_out_args(p)
    p.set_defaults(fn=cmd_perc)

    p = sub.add_parser("ising", help="Ising Metropolis on a torus")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--sweeps", type=int, default=4000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--thinning", type=int, default=2)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    _add_out_args(p)
    p.set_defaults(fn=cmd_ising)

    p = sub.add_parser("diag", help="diagram and bootstrap report")
    _add_dist_args(p, required=False)
    p.add_argument("--M", type=int, default=8)
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--input", default=None,
                   help="serialized two-point input JSON (overrides --family)")
    _add_out_args(p)
    p.set_defaults(fn=cmd_diag)

    p = sub.add_parser("infrared", help="infrared-ratio check")
    _add_dist_args(p)
    p.add_argument("--M", type=int, default=8)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--assert-free", action="store_true",
                   help="fail (exit 2) unless the deviation is <= 1e-12")
    _add_out_args(p)
    p.set_defaults(fn=cmd_infrared)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    _add_out_args(p)
    p.set_defaults(fn=cmd_acceptance)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.fn(args)
    except CheckFailed as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, sw.BudgetExceeded) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
