"""Exercise both adjoint routes on all three model problems.

Prints the worst discrete adjoint mismatch over random direction/data pairs
(should sit at rounding level), the continuous-adjoint pairing mismatch at
two time resolutions (should drop ~4x per halving), and the Taylor remainder
order for each parameter field (should be ~2).
"""

import argparse

import numpy as np

import waveinv as wi
from waveinv.galerkin import FIELD_NAMES
from waveinv.sensitivity import dot_test, taylor_test


def smooth_direction(disc, tg, names, scale=1.0):
    profile = np.prod([np.cos(w * x) for w, x in zip((2.0, 1.0), disc.axes)], axis=0)
    wobble = scale * np.outer(np.sin(np.pi * tg + 0.2), profile)
    return {name: wobble for name in names}


def load(disc, tg):
    """The load sin(pi x) [sin(pi y)] sin(2 t), in the first component on a square."""

    def fn(t, *axes):
        out = np.zeros((disc.n_nodes, disc.n_components))
        out[:, 0] = np.prod([np.sin(np.pi * x) for x in axes], axis=0) * np.sin(2.0 * t)
        return out

    return wi.make_source(disc, tg, fn)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=16)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    for problem in ("wave1d", "elastic2d", "maxwell1d"):
        n = 4 if problem == "elastic2d" else args.elements
        disc = wi.build_grid(problem, n)
        tg = np.linspace(0.0, 1.0, args.steps + 1)
        constants = {
            "wave1d": dict(a=1.0, b=0.3, q=0.6, rho=1.0),
            "elastic2d": dict(lam=1.2, mu=1.0, rho=1.0),
            "maxwell1d": dict(eps=1.0, mu=1.0),
        }[problem]
        point = wi.ParameterPoint.from_constants(problem, tg, disc.n_nodes, **constants)
        f = load(disc, tg)
        base = wi.forward_map(disc, point, f)

        worst = 0.0
        for _ in range(args.pairs):
            direction = {
                name: rng.standard_normal((tg.size, disc.n_nodes))
                for name in FIELD_NAMES[problem]
            }
            v = wi.DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
            worst = max(worst, dot_test(direction, v, mode="discrete", base=base))
        print(f"{problem}: discrete adjoint mismatch {worst:.2e} "
              f"({args.pairs} random pairs)")

        direction = smooth_direction(disc, tg, FIELD_NAMES[problem], scale=0.5)
        v = wi.DataVector(np.ones((tg.size, disc.n_free)), tg)
        coarse = dot_test(direction, v, mode="continuous", base=base)
        tg2 = np.linspace(0.0, 1.0, 2 * args.steps + 1)
        point2 = wi.ParameterPoint.from_constants(
            problem, tg2, disc.n_nodes, **constants
        )
        f2 = load(disc, tg2)
        direction2 = smooth_direction(disc, tg2, FIELD_NAMES[problem], scale=0.5)
        v2 = wi.DataVector(np.ones((tg2.size, disc.n_free)), tg2)
        fine = dot_test(direction2, v2, mode="continuous", base=wi.forward_map(disc, point2, f2))
        print(f"{problem}: continuous pairing mismatch {coarse:.2e} -> {fine:.2e} "
              f"on step halving (ratio {coarse / fine:.1f})")

        for name in FIELD_NAMES[problem]:
            report = taylor_test(
                smooth_direction(disc, tg, [name], scale=0.5),
                [1e-1, 1e-2, 1e-3, 1e-4],
                base=base,
            )
            print(f"{problem}: Taylor order in '{name}' = {report.order:.3f}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
