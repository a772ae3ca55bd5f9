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
from typing import List, Optional, Tuple

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.channel.multipath import MultipathChannel
from repro.constants import MAX_TX_POWER_DBM, NOISE_FLOOR_DBM
from repro.exceptions import ConfigurationError
from repro.utils.db import db_to_linear

__all__ = ["Testbed", "TestbedLink", "default_testbed", "dense_testbed"]


@dataclass(frozen=True)
class TestbedLink:
    """A directional link between two placed nodes.

    Attributes
    ----------
    tx_location, rx_location:
        Indices into the testbed's location list.
    snr_db:
        Average SNR of the link at full transmit power (single antenna,
        unit-power stream).
    channel:
        The frequency-selective MIMO channel, scaled so that the average
        per-antenna-pair power gain equals the linear SNR (i.e. noise has
        unit power at the receiver).
    """

    tx_location: int
    rx_location: int
    snr_db: float
    channel: MultipathChannel

    @property
    def average_matrix(self) -> np.ndarray:
        """Frequency-averaged channel matrix."""
        return self.channel.average_matrix()

    def frequency_response(self, fft_size: int = 64) -> np.ndarray:
        """Per-subcarrier channel matrices, shape ``(fft_size, n_rx, n_tx)``."""
        return self.channel.frequency_response(fft_size)


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

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two locations, metres."""
        xa, ya = self.locations[a]
        xb, yb = self.locations[b]
        return float(np.hypot(xa - xb, ya - yb))

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
        formula: the scalar :meth:`path_loss_db` and the vectorized
        all-pairs computation of the batched network construction both
        evaluate it, so a model change cannot diverge between them.
        """
        return self.reference_loss_db + 10 * self.path_loss_exponent * np.log10(
            np.maximum(distance, 1.0)
        )

    def path_loss_db(self, a: int, b: int) -> float:
        """Deterministic log-distance path loss between two locations."""
        return self.path_loss_at_distance(self.distance(a, b))

    def link_snr_db(
        self,
        a: int,
        b: int,
        rng: Optional[np.random.Generator] = None,
        path_loss_db: Optional[float] = None,
    ) -> float:
        """Average link SNR (dB) including shadowing, clamped to the
        testbed's operating range.

        ``path_loss_db`` lets a caller that already computed the
        deterministic loss (e.g. vectorized over all pairs) skip the
        per-call :meth:`path_loss_db`; the shadowing draw, budget
        arithmetic and clamp are shared either way.
        """
        loss = self.path_loss_db(a, b) if path_loss_db is None else path_loss_db
        if rng is not None:
            loss = loss + rng.normal(0.0, self.shadowing_sigma_db)
        snr = self.tx_power_dbm - loss - self.noise_floor_dbm
        # min/max, not np.clip: same value, but cheap enough for the
        # batched construction's once-per-pair call.
        return float(min(max(snr, self.min_snr_db), self.max_snr_db))

    # -- channel generation ------------------------------------------------------

    def draw_link_scalars(
        self,
        tx_location: int,
        rx_location: int,
        rng: np.random.Generator,
        snr_db: Optional[float] = None,
        path_loss_db: Optional[float] = None,
    ) -> Tuple[float, float]:
        """The per-link scalar draws, in canonical order.

        This is *the* definition of a link's scalar random-draw sequence
        -- the shadowed SNR (one ``rng.normal``, skipped when ``snr_db``
        forces the budget) followed by the line-of-sight coin (one
        ``rng.random``) -- shared by :meth:`link` and the batched network
        construction
        (:meth:`repro.sim.network.Network._draw_channels`), so the
        bit-identity contract between those paths lives in one place.

        ``path_loss_db`` lets a caller that has already computed the
        deterministic log-distance loss (e.g. vectorized over all pairs)
        skip the per-link :meth:`path_loss_db` call; the shadowing,
        clamping and float arithmetic stay identical either way.

        Returns ``(snr_db, decay_samples)``.
        """
        if snr_db is None:
            snr_db = self.link_snr_db(
                tx_location, rx_location, rng, path_loss_db=path_loss_db
            )
        else:
            snr_db = float(snr_db)
        line_of_sight = rng.random() < self.los_probability
        # Line of sight: a strong first tap plus weak scattering.
        return snr_db, 0.6 if line_of_sight else 1.5

    def draw_link_scalars_batch(
        self,
        path_loss_db: np.ndarray,
        rng: np.random.Generator,
        forced_snr_db: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every link's scalar draws at once -- the grouped (v3) contract.

        Where :meth:`draw_link_scalars` interleaves the two scalar draws
        link by link (the v2 ``"batched"`` network construction's
        contract), this consumes randomness
        **scalars-first**: ONE ``rng.normal`` call draws the shadowing of
        every link, then ONE ``rng.random`` call draws every
        line-of-sight coin.  A shadowing value is drawn (and discarded)
        even for links whose SNR is forced, so the stream layout depends
        only on the link count, never on the forced set.  Seeded results
        therefore differ from the v2 contracts by design -- selecting
        this contract rides the ``CACHE_SCHEMA_VERSION`` bump (see
        :mod:`repro.sim.sweep`).

        Parameters
        ----------
        path_loss_db:
            Deterministic log-distance losses, shape ``(n_links,)``.
        rng:
            The construction generator.
        forced_snr_db:
            Optional ``(n_links,)`` array of forced SNRs, ``NaN`` where
            the link derives its budget from the geometry.

        Returns ``(snr_db, decay_samples)`` arrays of shape ``(n_links,)``.
        """
        loss = np.asarray(path_loss_db, dtype=float)
        shadow = rng.normal(0.0, self.shadowing_sigma_db, size=loss.shape)
        snr = self.tx_power_dbm - (loss + shadow) - self.noise_floor_dbm
        snr = np.minimum(np.maximum(snr, self.min_snr_db), self.max_snr_db)
        if forced_snr_db is not None:
            forced = np.asarray(forced_snr_db, dtype=float)
            snr = np.where(np.isnan(forced), snr, forced)
        line_of_sight = rng.random(loss.shape) < self.los_probability
        decay = np.where(line_of_sight, 0.6, 1.5)
        return snr, decay

    def link(
        self,
        tx_location: int,
        rx_location: int,
        n_tx: int,
        n_rx: int,
        rng: np.random.Generator,
        snr_db: Optional[float] = None,
    ) -> TestbedLink:
        """Draw the channel of a link.

        Parameters
        ----------
        tx_location, rx_location:
            Location indices of the two endpoints.
        n_tx, n_rx:
            Antenna counts.
        rng:
            Random generator (placements, shadowing and fading).
        snr_db:
            Force the average link SNR instead of deriving it from the
            geometry; used by controlled experiments such as Fig. 11.
        """
        snr_db, decay = self.draw_link_scalars(tx_location, rx_location, rng, snr_db)
        channel = MultipathChannel.random(
            n_rx=n_rx,
            n_tx=n_tx,
            rng=rng,
            n_taps=self.n_taps,
            decay_samples=decay,
            average_gain=float(db_to_linear(snr_db)),
        )
        return TestbedLink(
            tx_location=tx_location,
            rx_location=rx_location,
            snr_db=float(snr_db),
            channel=channel,
        )


def default_testbed(hardware: Optional[HardwareProfile] = None) -> Testbed:
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
    return Testbed(locations=locations, hardware=hardware or HardwareProfile())


def dense_testbed(
    n_locations: int = 64,
    width_m: float = 60.0,
    height_m: float = 40.0,
    seed: int = 0,
    hardware: Optional[HardwareProfile] = None,
) -> Testbed:
    """A larger synthetic floor for the dense-LAN scenarios.

    The default 20-location floor of :func:`default_testbed` cannot hold
    the 20-50 node scenarios of :func:`repro.sim.scenarios.dense_lan_scenario`,
    so this builds a bigger one: ``n_locations`` candidate positions on a
    jittered grid covering ``width_m`` x ``height_m`` metres (roughly a
    whole office storey at the defaults).  The layout is deterministic
    given ``seed`` -- the jitter comes from a generator seeded here, not
    from any per-run randomness -- so scenarios built on it have stable
    geometry for caching and cross-run comparisons.
    """
    if n_locations < 2:
        raise ConfigurationError("a testbed needs at least two locations")
    rng = np.random.default_rng(seed)
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
    return Testbed(locations=locations, hardware=hardware or HardwareProfile())
