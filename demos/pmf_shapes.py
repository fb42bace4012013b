"""Shapes of the k-step displacement distribution.

Walks through the closed-form pmf at a few coin parameters: the exact
two-step row, how mass migrates toward the extreme site as |lambda|
grows, and the reluctance profile p(0; k) that motivates the return
protocol.  Run directly:

    python3 demos/pmf_shapes.py
"""

import math

from reluctant_walk import pmf_full, pmf_point


def show_table(pmf):
    print(f"  k={pmf.k}, lambda={pmf.lam}")
    for d in pmf.support:
        bar = "#" * int(round(50 * pmf.probability(d)))
        print(f"    d={d:+3d}  p={pmf.probability(d):.6f}  {bar}")


def main():
    print("Two-step row, lambda = 0.6 (exact rational arithmetic):")
    show_table(pmf_full(2, 0.6))
    print("  expected: lam^4 = 0.1296, 1 - lam^2 = 0.64, "
          "lam^2 (1 - lam^2) = 0.2304")
    print()

    print("Displacement axis convention: the analytic distribution piles up")
    print("at d = -k as lambda -> 1 (the mirror of the simulator's axis).")
    for lam in (0.3, 0.9, 0.999):
        pmf = pmf_full(8, lam)
        print(f"  lambda={lam:5.3f}: p(-8) = {pmf.probability(-8):.6f}, "
              f"mean displacement = {pmf.mean():+.4f}")
    print()

    print("Reluctance profile (r = d/k) at k = 10, lambda = 0.6:")
    for d, p in pmf_full(10, 0.6).table.items():
        print(f"  r={d / 10:+.1f}  p = {p:.6f}")
    print()

    print("Return probability p(0; k) at lambda = 0.6, even k:")
    for k in range(2, 13, 2):
        print(f"  k={k:3d}  p(0) = {pmf_point(k, 0, 0.6):.6f}")
    print()

    theta = math.pi / 3
    lam = math.cos(theta)
    print(f"Single points from the exact rows, theta = pi/3:")
    for k, d in ((4, 0), (4, -4), (12, 6)):
        print(f"  p(d={d:+d} | k={k}) = {pmf_point(k, d, lam):.10f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(7, 4))
        for lam in (0.2, 0.6, 0.9):
            pmf = pmf_full(40, lam, exact=False)
            ax.plot(pmf.support, [pmf.probability(d) for d in pmf.support],
                    marker=".", lw=1, label=f"lambda={lam}")
        ax.set_xlabel("displacement d")
        ax.set_ylabel("p(d | k=40)")
        ax.legend()
        fig.tight_layout()
        fig.savefig("pmf_shapes.png", dpi=120)
        print("\nWrote pmf_shapes.png")
    except ImportError:
        print("\n(matplotlib not installed; skipping the plot)")


if __name__ == "__main__":
    main()
