"""Three routes to one distribution.

The same k-step statistics emerge from (a) the state-vector simulation,
(b) the closed-form pmf, and (c) the momentum-space Kraus channel.  This
script runs all three on one configuration and prints the residuals,
then spot-checks the completeness of the Kraus pair the channel is built
from.

    python3 demos/channel_check.py
"""

import math

import numpy as np

from reluctant_walk import (
    CoinParameter,
    WalkState,
    channel_position_pmf,
    evolve,
    kraus_kernels,
    pmf_full,
    pmf_point,
    position_pmf,
)

THETA = 0.9
K = 12


def main():
    coin = CoinParameter(THETA)
    state = evolve(WalkState.origin(), coin, K)
    direct = position_pmf(state)
    channel = channel_position_pmf(WalkState.origin(), coin, K)
    analytic = pmf_full(K, coin.lam, exact=False)

    print(f"k={K}, theta={THETA}")
    worst_ch = max(abs(direct.probability(m) - channel.probability(m))
                   for m in direct.support)
    print(f"channel vs direct evolution (same axis):    {worst_ch:.3e}")
    worst_an = max(abs(analytic.probability(d) - direct.probability(-d))
                   for d in analytic.support)
    print(f"closed form vs direct (mirrored axis):      {worst_an:.3e}")
    # d = 0 is its own mirror, so all three routes read the return at 0
    q_direct = direct.probability(0)
    print(f"return probability, closed form vs readout: "
          f"{abs(q_direct - pmf_point(K, 0, coin.lam)):.3e}")
    print(f"return probability, channel vs readout:     "
          f"{abs(q_direct - channel.probability(0)):.3e}")
    print()

    print("Kraus completeness |A|^2 + |B|^2 = 1 across momentum:")
    phis = np.linspace(-math.pi, math.pi, 9)
    a, b = kraus_kernels(phis, coin, K)
    residuals = np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)
    for phi, r in zip(phis, residuals):
        print(f"  phi={phi:+.3f}  residual {r:.3e}")


if __name__ == "__main__":
    main()
