"""A synthetic testbed standing in for the paper's Fig. 10 deployment.

The paper evaluates n+ on ~20 USRP2 node locations spread over an office
floor, mixing line-of-sight and non-line-of-sight links, and repeats each
experiment with nodes assigned to random locations.  We reproduce the
*statistics* that matter for the results -- link SNRs spanning roughly
5-32 dB, frequency-selective fading, and independent channels per antenna
pair -- with a log-distance path-loss model plus log-normal shadowing and
Rayleigh/Rician multipath.

All link budgets are expressed relative to the receiver noise floor, so a
"channel" handed to the MIMO/PHY layers is already scaled such that a
unit-power transmit signal arrives with the link's SNR when the noise has
unit power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.constants import MAX_TX_POWER_DBM, NOISE_FLOOR_DBM
from repro.exceptions import ConfigurationError

__all__ = ["Testbed", "default_testbed", "dense_testbed"]


@dataclass
class Testbed:
    """The synthetic deployment area.

    Attributes
    ----------
    locations:
        Candidate node positions in metres.
    tx_power_dbm:
        Transmit power used for link budgets.
    noise_floor_dbm:
        Receiver noise floor.
    path_loss_exponent:
        Log-distance path-loss exponent (office environments: ~3).
    reference_loss_db:
        Path loss at the 1 m reference distance.
    shadowing_sigma_db:
        Standard deviation of log-normal shadowing.
    los_probability:
        Probability that a link is treated as line-of-sight (Rician).
    n_taps:
        Multipath taps per link (within the cyclic prefix).
    hardware:
        The hardware impairment profile shared by all nodes.
    min_snr_db, max_snr_db:
        Links are clamped into this SNR range, mirroring the 5-32 dB
        operating range reported in §6.2.
    """

    locations: List[Tuple[float, float]]
    tx_power_dbm: float = MAX_TX_POWER_DBM
    noise_floor_dbm: float = NOISE_FLOOR_DBM
    path_loss_exponent: float = 3.3
    reference_loss_db: float = 56.7
    shadowing_sigma_db: float = 6.0
    los_probability: float = 0.35
    n_taps: int = 3
    hardware: HardwareProfile = field(default_factory=HardwareProfile)
    min_snr_db: float = 5.0
    max_snr_db: float = 30.0

    def __post_init__(self) -> None:
        if len(self.locations) < 2:
            raise ConfigurationError("a testbed needs at least two locations")

    # -- geometry -----------------------------------------------------------

    @property
    def n_locations(self) -> int:
        """Number of candidate node positions."""
        return len(self.locations)

    def place_nodes(self, n_nodes: int, rng: np.random.Generator) -> List[int]:
        """Assign ``n_nodes`` nodes to distinct random locations."""
        if n_nodes > self.n_locations:
            raise ConfigurationError(
                f"cannot place {n_nodes} nodes on {self.n_locations} locations"
            )
        return list(rng.choice(self.n_locations, size=n_nodes, replace=False))

    # -- link budget ----------------------------------------------------------

    def path_loss_at_distance(self, distance):
        """Log-distance path loss at ``distance`` metres (scalar or array).

        Distances clamp to the 1 m reference.  This is *the* propagation
        formula: the all-pairs network construction and the handshake
        experiment's link draws both evaluate it.
        """
        return self.reference_loss_db + 10 * self.path_loss_exponent * np.log10(
            np.maximum(distance, 1.0)
        )

    def link_scalars_batch(
        self,
        path_loss_db: np.ndarray,
        shadowing: np.ndarray,
        coins: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every link's ``(snr_db, decay_samples)`` from its drawn values.

        The draws are taken out: ``shadowing`` holds each link's
        standard-normal shadowing draw and ``coins`` its uniform
        line-of-sight coin, so every caller -- the two network draw
        contracts and the handshake experiment, which consume the
        generator in different orders -- shares one link budget.  The
        budget is ``tx - (loss + sigma * z) - noise floor``, clamped to
        the operating range.  A line-of-sight link (coin below
        ``los_probability``) decays over 0.6 samples, any other over 1.5.

        All arrays have shape ``(n_links,)``.
        """
        shadow = self.shadowing_sigma_db * shadowing
        snr = self.tx_power_dbm - (path_loss_db + shadow) - self.noise_floor_dbm
        snr = np.minimum(np.maximum(snr, self.min_snr_db), self.max_snr_db)
        # Line of sight: a strong first tap plus weak scattering.
        decay = np.where(coins < self.los_probability, 0.6, 1.5)
        return snr, decay


def default_testbed() -> Testbed:
    """The default synthetic floor plan.

    Twenty candidate locations laid out over a ~30 m x 20 m office floor:
    a central corridor (mostly line-of-sight links) and offices on either
    side (non-line-of-sight), echoing the deployment sketched in Fig. 10.
    """
    corridor = [(5.0 * i, 10.0) for i in range(1, 7)]
    north_offices = [(4.0 + 6.0 * i, 16.5) for i in range(5)]
    south_offices = [(4.0 + 6.0 * i, 3.5) for i in range(5)]
    corners = [(1.0, 1.0), (29.0, 1.0), (1.0, 19.0), (29.0, 19.0)]
    locations = corridor + north_offices + south_offices + corners
    return Testbed(locations=locations)


def dense_testbed(n_locations: int = 64, seed: int = 0) -> Testbed:
    """A larger synthetic floor for the dense-LAN scenarios.

    The default 20-location floor of :func:`default_testbed` cannot hold
    the 20-50 node scenarios of :func:`repro.sim.scenarios.dense_lan_scenario`,
    so this builds a bigger one: ``n_locations`` candidate positions on a
    jittered grid covering 60 m x 40 m (roughly a whole office storey).
    The layout is deterministic given ``seed`` -- the jitter comes from a
    generator seeded here, not from any per-run randomness -- so scenarios
    built on it have stable geometry for caching and cross-run
    comparisons.
    """
    if n_locations < 2:
        raise ConfigurationError("a testbed needs at least two locations")
    rng = np.random.default_rng(seed)
    width_m, height_m = 60.0, 40.0
    n_cols = int(np.ceil(np.sqrt(n_locations * width_m / height_m)))
    n_rows = int(np.ceil(n_locations / n_cols))
    xs = np.linspace(2.0, width_m - 2.0, n_cols)
    ys = np.linspace(2.0, height_m - 2.0, n_rows)
    spacing = min(
        xs[1] - xs[0] if n_cols > 1 else width_m,
        ys[1] - ys[0] if n_rows > 1 else height_m,
    )
    grid = [(float(x), float(y)) for y in ys for x in xs][:n_locations]
    jitter = rng.uniform(-0.3, 0.3, size=(len(grid), 2)) * spacing
    locations = [
        (
            float(np.clip(x + dx, 0.5, width_m - 0.5)),
            float(np.clip(y + dy, 0.5, height_m - 0.5)),
        )
        for (x, y), (dx, dy) in zip(grid, jitter)
    ]
    return Testbed(locations=locations)
