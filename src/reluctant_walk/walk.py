"""State-vector simulation of the coined walk on the integer line.

The walker carries a two-level coin.  One step applies the SO(2) coin
rotation to the coin register, then shifts coin-0 amplitude one site right
and coin-1 amplitude one site left.  ``evolve``/``position_pmf`` are the
ground-truth oracle the closed forms in ``pmf`` are tested against.

The module also carries the phase-space picture of the same dynamics: the
position-diagonal Kraus pair at momentum phi, obtained by tracing the coin
out of the k-step kernel, and the position channel built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _chebyshev_u_pair, _finite, _integer, _step_count, _unit_lam, _unit_total
from .pmf import Pmf

__all__ = [
    "CoinParameter",
    "WalkState",
    "evolve",
    "position_pmf",
    "kraus_kernels",
    "channel_position_pmf",
]


def _sites(lo: int, width: int, steps: int = 0) -> None:
    """Raises ValueError unless the sites ``steps`` steps reach from ``width`` sites at
    ``lo``, and the one after, all fit int64, where ``np.arange`` keeps them apart."""
    if not -2**63 <= lo - steps <= lo + width + steps < 2**63:
        raise ValueError(f"walk sites {lo - steps} to {lo + width + steps} leave the int64 range")


@dataclass(frozen=True)
class CoinParameter:
    """Coin angle theta, normalized to [-pi, pi); ``lam`` = cos(theta) and
    ``sin_theta`` are computed from it on each read."""

    theta: float

    def __post_init__(self):
        t = math.remainder(_finite(self.theta, "theta"), math.tau)
        if t == math.pi:
            t = -math.pi
        object.__setattr__(self, "theta", t)

    @classmethod
    def from_lambda(cls, lam: float) -> "CoinParameter":
        """Coin with the given lam = cos(theta), taking theta = acos(lam) in [0, pi]."""
        return cls(math.acos(_unit_lam(lam)))

    @property
    def lam(self) -> float:
        return math.cos(self.theta)

    @property
    def sin_theta(self) -> float:
        return math.sin(self.theta)


@dataclass(frozen=True, eq=False)
class WalkState:
    """Amplitudes over a contiguous position window.

    ``amps`` has shape (2, width): row 0 holds the coin-0 amplitude at
    positions lo, lo+1, ..., row 1 the coin-1 amplitude.  ``k`` counts the
    steps applied so far.  ``k`` (a step count >= 0, ``_step_count``) and
    ``lo`` are ints; a float or a bool raises ValueError, as does a window
    that leaves int64 (``_sites``).  Instances are immutable; ``evolve``
    returns a new state one site wider on each side per step.
    """

    k: int
    lo: int
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _step_count(self.k, 0))
        object.__setattr__(self, "lo", _integer(self.lo, "site lo"))
        a = np.array(self.amps, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != 2 or a.shape[1] < 1:
            raise ValueError(f"amps must have shape (2, width>=1), got {a.shape}")
        _sites(self.lo, a.shape[1])
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def origin(cls) -> "WalkState":
        """Walker at the origin with coin state |0>."""
        return cls(0, 0, np.array([[1.0], [0.0]]))

    @classmethod
    def localized(cls, position: int, coin=(1.0, 0.0)) -> "WalkState":
        """Walker at one site with the given (normalized) coin amplitudes."""
        c0, c1 = complex(coin[0]), complex(coin[1])
        _unit_total(abs(c0) ** 2 + abs(c1) ** 2, "coin amplitudes")
        return cls(0, position, np.array([[c0], [c1]]))

    @classmethod
    def from_amplitudes(cls, mapping: dict, k: int = 0) -> "WalkState":
        """State from a {(coin, position): amplitude} mapping, norm-checked."""
        if not mapping:
            raise ValueError("empty amplitude mapping")
        positions = [pos for _, pos in mapping]
        lo, hi = min(positions), max(positions)
        a = np.zeros((2, hi - lo + 1), dtype=np.complex128)
        for (coin, pos), amp in mapping.items():
            if coin not in (0, 1):
                raise ValueError(f"coin index must be 0 or 1, got {coin}")
            a[coin, pos - lo] += amp
        _unit_total(np.sum(np.abs(a) ** 2), "amplitudes")
        return cls(k, lo, a)

    @property
    def width(self) -> int:
        return self.amps.shape[1]

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.width)

    def amplitude(self, coin: int, position: int) -> complex:
        if coin not in (0, 1):
            raise ValueError(f"coin index must be 0 or 1, got {coin}")
        i = position - self.lo
        if i < 0 or i >= self.width:
            return 0j
        return complex(self.amps[coin, i])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))


def evolve(state: WalkState, p: CoinParameter, steps: int) -> WalkState:
    """Apply ``steps`` walk steps (steps >= 0).

    The walk is bipartite: a step moves every amplitude to a neighbouring
    site, so the sites lo, lo+2, ... of the start state and the sites
    lo+1, lo+3, ... never mix.  A one-site start occupies one parity class,
    and only that class is kept, at half the width: entry i at step t is
    site lo - t + 2i.  A wider start keeps both classes interleaved, entry
    i at step t being site lo - t + i.  Either index follows the walk's
    drift of one site down a step, so coin 1 stays put, coin 0 moves up by
    the number of classes kept, and the window grows by as many entries.

    The steps run in one zeroed buffer wider than the final window by the
    number of classes kept.  Over the active window a step is three array operations
    into preallocated buffers: coin 0's contributions a0 * (c, -s) to the
    two coins, coin 1's a1 * (s, c), and one add of the two into
    ``moved``, a view of the buffer whose row 0 is coin 0 moved up and
    row 1 coin 1 in place, so the sum lands already shifted.  The entries
    coin 0 vacates are set to zero.  The sites a one-site start never
    reaches (every other site) hold +0.0.
    """
    _step_count(steps, 0)
    _sites(state.lo, state.width, steps)
    if steps == 0:
        return state
    c, s = p.lam, p.sin_theta
    # what coin 0 and coin 1 each send to (coin 0, coin 1)
    to0 = np.array([[c], [-s]], dtype=np.complex128)
    to1 = np.array([[s], [c]], dtype=np.complex128)
    classes = min(2, state.width)
    n = state.width
    width = n + classes * steps
    amps = np.zeros((2, width + classes), dtype=np.complex128)
    # moved[:, i] is (amps[0, i + classes], amps[1, i]): rows width apart in
    # a buffer width + classes wide
    moved = amps.reshape(-1)[classes:classes + 2 * width].reshape(2, width)
    from0, from1 = np.empty((2, 2, width), dtype=np.complex128)
    amps[:, :n] = state.amps
    vacated = amps[0, :classes]
    for _ in range(steps):
        t0, t1 = from0[:, :n], from1[:, :n]
        np.multiply(amps[0, :n], to0, out=t0)
        np.multiply(amps[1, :n], to1, out=t1)
        np.add(t0, t1, out=moved[:, :n])
        vacated.fill(0)
        n += classes
    if classes == 2:
        return WalkState(state.k + steps, state.lo - steps, amps[:, :width])
    out = np.zeros((2, 2 * width - 1), dtype=np.complex128)
    out[:, ::2] = amps[:, :width]
    return WalkState(state.k + steps, state.lo - steps, out)


def position_pmf(state: WalkState) -> Pmf:
    """Distribution over every position in the state's window.

    Off-parity positions carry exactly zero probability for walks started
    from a single site: ``evolve`` never computes them and leaves them
    +0.0, so they read 0.0 here.  They are kept in the table so the zeros
    are visible in serialized output.
    """
    probs = np.sum(np.abs(state.amps) ** 2, axis=0)
    table = dict(zip(state.positions.tolist(), probs.tolist()))
    return Pmf(state.k, table, lam=None)


def kraus_kernels(phi, p: CoinParameter, k: int):
    """Position-diagonal Kraus pair (A_k, B_k) at momentum phi.

    A_k = cos(theta) e^{i phi} U_{k-1}(xi) - U_{k-2}(xi)
    B_k = sin(theta) e^{-i phi} U_{k-1}(xi)

    with xi = cos(theta) cos(phi).  These are the two coin-trace branches
    of M^k, M the one-step kernel at momentum phi, for a coin-0 input;
    |A_k|^2 + |B_k|^2 = 1 pointwise.  ``phi`` may be a scalar or an array.
    """
    _step_count(k)
    phi = np.asarray(phi, dtype=float)
    xi = p.lam * np.cos(phi)
    u1, u2 = _chebyshev_u_pair(k - 1, xi)
    a = p.lam * np.exp(1j * phi) * u1 - u2
    b = p.sin_theta * np.exp(-1j * phi) * u1
    return a, b


def _momentum_grid(support: int) -> np.ndarray:
    """Nodes 2 pi j / R of the periodic trapezoid rule, R the smallest power
    of two >= support.  A trigonometric polynomial whose frequencies lie in
    ``support`` consecutive integers is recovered from them exactly.
    """
    r = 1 << int(support - 1).bit_length()
    return 2.0 * math.pi * np.arange(r) / r


def channel_position_pmf(initial: WalkState, p: CoinParameter, steps: int) -> Pmf:
    """Position distribution after k steps, computed through the Kraus pair.

    Transforms the initial coin-0 wavefunction to the phase basis, applies
    (A_k, -B_k), and transforms back, each by one FFT on R momentum nodes,
    R the smallest power of two >= width + 2k (the output support).  The
    branches have their frequencies in that support, so this trapezoid rule
    is exact to rounding, in O(R log R) time and O(R) memory whatever the
    start site.  Requires the initial coin register in state |0> (the pair
    is the coin-0 column of the k-step kernel).  Agrees with
    ``position_pmf(evolve(...))`` on the same position axis; only the
    analytic forms in ``pmf`` are axis-reflected.
    """
    _step_count(steps)
    _sites(initial.lo, initial.width, steps)
    if np.max(np.abs(initial.amps[1])) > 1e-12:
        raise ValueError("channel form requires the coin register in state |0>")
    out_positions = np.arange(initial.lo - steps, initial.lo + initial.width + steps)
    phi = _momentum_grid(out_positions.size)
    coin0 = np.zeros(phi.size, dtype=np.complex128)
    coin0[initial.positions % phi.size] = initial.amps[0]
    # psi_hat / R: ifft carries the 1/R of the trapezoid rule, fft the sum back
    psi_hat = np.fft.ifft(coin0)
    a_k, b_k = kraus_kernels(phi, p, steps)
    psi0 = np.fft.fft(a_k * psi_hat)[out_positions % phi.size]
    psi1 = np.fft.fft(-b_k * psi_hat)[out_positions % phi.size]
    probs = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
    table = dict(zip(out_positions.tolist(), probs.tolist()))
    return Pmf(initial.k + steps, table, lam=p.lam)
