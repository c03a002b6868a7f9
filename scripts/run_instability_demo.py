"""Drive one coefficient with collapsing bumps and tabulate both distances.

The perturbation's certified norm stays bounded below while the trajectory
difference collapses — the quantitative signature of ill-posedness that makes
unregularized inversion hopeless.
"""

import argparse

import numpy as np

import waveinv as wi
from waveinv.illposed import illposed_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problem", default="wave1d",
                        choices=["wave1d", "elastic2d", "maxwell1d"])
    parser.add_argument("--target", default="q")
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--elements", type=int, default=16)
    parser.add_argument("--steps", type=int, default=320)
    parser.add_argument("--j", type=int, nargs="+", default=[4, 8, 16, 32, 64])
    args = parser.parse_args(argv)

    n = 3 if args.problem == "elastic2d" else args.elements
    disc = wi.build_grid(args.problem, n)
    tg = np.linspace(0.0, 1.0, args.steps + 1)
    constants = {
        "wave1d": dict(a=1.0, b=0.3, q=0.6, rho=1.0),
        "elastic2d": dict(lam=1.2, mu=1.0, rho=1.0),
        "maxwell1d": dict(eps=1.0, mu=1.0),
    }[args.problem]
    point = wi.ParameterPoint.from_constants(
        args.problem, tg, disc.n_nodes, **constants
    )

    def load(t, *axes):  # sin(pi x) [sin(pi y)] sin(2 t) in the first component
        out = np.zeros((disc.n_nodes, disc.n_components))
        out[:, 0] = np.prod([np.sin(np.pi * x) for x in axes], axis=0) * np.sin(2.0 * t)
        return out

    f = wi.make_source(disc, tg, load)

    result = illposed_experiment(
        disc, point, args.target, args.delta, args.j, f
    )
    lower = 0.5 * args.delta * result.gamma
    print(f"problem {result.problem}, target '{result.target}', "
          f"delta {result.delta}, certified lower bound {lower:.4f}")
    print(f"{'j':>4}  {'param distance':>15}  {'output distance':>15}")
    for j, p, o in result.rows():
        print(f"{j:>4}  {p:>15.6f}  {o:>15.3e}")
    print(f"output ratio out(j_max)/out(j_min) = {result.output_ratio:.3e}")
    print(f"parameter lower bound held: {result.param_lower_ok}; "
          f"outputs strictly decreasing: {result.output_decreasing}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
