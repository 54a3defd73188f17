"""Regenerate reference.json: chi references for percolation on large tori.

No closed form gives the mean origin-cluster size of nn bond percolation on
a d=2 torus, so the benchmark compares lacelab's Monte Carlo against a much
longer run of the independent whole-torus sampler in oracles.py.  The file
is committed; rerun this only when an instance is added or changed.

Usage: python3 perfbench/make_reference.py
"""

import json
import os

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# (d, M, z) of the nn percolation jobs on large tori; p = z / (2d) per bond
INSTANCES = [(2, 32, 0.8), (2, 32, 1.2)]
REPLICAS = 1_000_000


def main() -> None:
    rows = []
    for i, (d, M, z) in enumerate(INSTANCES):
        rng = np.random.default_rng(20070 + i)
        sizes = oracles.sample_torus_percolation(d, M, z / (2 * d), REPLICAS,
                                                 rng)
        chi, se = oracles.mean_and_se(sizes)
        rows.append({"family": "nn", "d": d, "M": M, "z": z, "chi": chi,
                     "se": se, "replicas": REPLICAS,
                     "rng_seed": 20070 + i})
        print(rows[-1])
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"perc": rows}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
