#!/usr/bin/env python3
"""Sweep fBm baseline clouds across Hurst exponents and locate them on the plane.

Prints one row per H with the cloud's mean (entropy, complexity), its spread,
and where the mean sits relative to the theoretical envelope at that entropy.
Smoother paths (larger H) drift down in entropy and up in complexity.
The clouds come from one ``fbm._baseline_clouds`` call, as in ``cecplane
fbm``, so each path's normals are drawn once for every exponent.
"""

import argparse

from cecplane import OrdinalConfig, lower_bound_curve, upper_bound_curve
from cecplane.fbm import _baseline_clouds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hurst", default="0.5,0.6,0.7,0.8,0.9",
                        help="comma-separated Hurst exponents")
    parser.add_argument("--sims", type=int, default=500)
    parser.add_argument("--length", type=int, default=360)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--tau", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    config = OrdinalConfig(args.dim, args.tau)
    lower = lower_bound_curve(config.num_patterns, 2000)
    upper = upper_bound_curve(config.num_patterns, 2000)

    print(f"{'H':>4} {'mean_H':>9} {'mean_C':>9} {'std_H':>8} {'std_C':>8} "
          f"{'C_lower':>9} {'C_upper':>9}")
    hursts = [float(h) for h in args.hurst.split(",")]
    for hurst, cloud in zip(hursts, _baseline_clouds(hursts, args.sims, args.length,
                                                     config, args.seed)):
        h = cloud.mean_point.entropy
        print(f"{hurst:>4.2f} {h:>9.4f} {cloud.mean_point.complexity:>9.4f} "
              f"{cloud.std_entropy:>8.4f} {cloud.std_complexity:>8.4f} "
              f"{lower.complexity_at(h):>9.4f} {upper.complexity_at(h):>9.4f}")


if __name__ == "__main__":
    main()
