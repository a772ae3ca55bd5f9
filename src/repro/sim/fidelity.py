"""Two-fidelity PHY: escalate uncertain links to the full transceiver.

The MAC simulator normally predicts delivery from the post-projection-SNR
link abstraction (:mod:`repro.sim.link_abstraction` +
:func:`repro.phy.esnr.packet_delivery_probability`), which costs
microseconds per reception.  The full transceiver chain
(:mod:`repro.phy.transceiver`: convolutional encode, OFDM modulate, fade,
ZF equalise, Viterbi decode) costs ~4 ms per 1024-bit probe (median over
the eight MCSs at their delivery cliff on a shared 2-core x86-64 Xeon VM,
NumPy 2.4.6, Python 3.11; about 60% of it in the Viterbi decoder) -- three
to four orders of magnitude more -- but is the ground truth the
abstraction approximates.

This module promotes that split into an explicit **fidelity tier**
(``SimulationConfig.fidelity``):

``"abstraction"``
    The default; bit-identical to the pre-fidelity simulator.
``"auto"``
    Every attempted reception is classified by its ESNR distance to the
    delivery cliff (:func:`repro.phy.esnr.delivery_margin_db`).  Groups
    whose margin falls inside a configurable **uncertainty band**
    (``fidelity_band_db``, default +/-3 dB) escalate to a real
    encode->channel->decode of a probe frame, and the PHY pass/fail
    verdict overrides the abstraction's coin.  Far from the cliff the
    abstraction's confident predictions stand (the calibration in the
    cross-validation harness is what justifies that trust).
``"full"``
    Every evaluated reception escalates (an infinite band) -- the
    PHY-accurate reference mode.

Determinism contract
--------------------
The abstraction's delivery coin is *always* drawn, even when the verdict
is overridden, so the main generator consumes exactly the same stream as
an ``"abstraction"`` run.  All PHY randomness (probe payload bits, AWGN)
comes from dedicated streams seeded ``(seed, PHY_STREAM_TAG, tx, rx,
key-hash)``, and the escalated verdict is computed from jitter-free
deterministic SNRs -- a pure function of the configuration key.  Verdicts
are memoized per (link epoch, stream signature) exactly like the agents'
measured-SNR memo (:func:`repro.mac.plan.involved_node_ids`), so a fault
bumping any involved link's epoch invalidates exactly the affected
entries.  Together this makes ``"auto"``/``"full"`` results a pure
function of the seed across pipelines, worker counts and plan-cache
settings.

Cross-fidelity validation
-------------------------
:func:`cross_validate_links` is the standing harness: sample links from a
scenario's real network, run the abstraction and the full transceiver on
identical inputs (same post-projection SNRs, same MCS), and report a
calibrated agreement table.  Agreement *outside* the band is the number
that must stay high (the abstraction is trusted there); disagreement
*inside* the band is expected -- it is the reason the band exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import BITRATE_MARGIN_DB
from repro.exceptions import ConfigurationError
from repro.mac.plan import involved_node_ids, stream_signature
from repro.phy.channel_est import ChannelEstimate
from repro.phy.esnr import (
    delivery_margin_db,
    esnr_db,
    mcs_for_esnr,
    packet_delivery_probability,
)
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.phy.rates import MCS, MCS_TABLE
from repro.phy.transceiver import MimoReceiver, MimoTransmitter, StreamConfig
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim.medium import ScheduledStream
from repro.sim.network import _subcarrier_bins
from repro.sim.spec import DEFAULT_BAND_DB, RunSpec

__all__ = [
    "PHY_STREAM_TAG",
    "DEFAULT_PROBE_BITS",
    "phy_stream_rng",
    "simulate_probe_delivery",
    "FidelityEngine",
    "LinkCheck",
    "FidelityReport",
    "cross_validate_links",
]

#: Stream tag mixed into the simulation seed for full-PHY probe draws
#: (payload bits and AWGN), decorrelating them from the backoff/delivery,
#: estimation, arrival and fault streams.
PHY_STREAM_TAG = 0x706879  # "phy"

#: Probe payload length (bits).  Long enough that the coded chain shows a
#: sharp delivery cliff (short probes let Viterbi luck out several dB
#: below threshold at 64-QAM), short enough to keep a probe ~4 ms.
DEFAULT_PROBE_BITS = 1024

#: Probe frames per :func:`cross_validate_links` verdict (a majority).
VALIDATION_TRIALS = 3

# The probe chain is single-stream over the full 64-bin OFDM grid; the
# transceiver objects are stateless across calls, so module singletons
# avoid rebuilding codec tables per probe.
_OFDM = OfdmConfig()
_MODEM = OfdmModem(_OFDM)
_PROBE_TX = MimoTransmitter(1, _OFDM)
_PROBE_RX = MimoReceiver(1, _OFDM)


def _key_hash(key) -> int:
    """Stable 64-bit hash of a structural key (``hash()`` is per-process)."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def phy_stream_rng(seed, transmitter_id: int, receiver_id: int, key=()) -> np.random.Generator:
    """The dedicated PHY-probe generator of one (link, configuration).

    Seeded ``(seed, PHY_STREAM_TAG, tx, rx, key-hash)``: the same seed,
    link and configuration key always produce the same probe bits and
    noise, no matter in which round (or process) the escalation happens --
    the order-independence contract shared with the estimation, arrival
    and fault streams.
    """
    return np.random.default_rng(
        (seed, PHY_STREAM_TAG, transmitter_id, receiver_id, _key_hash(key))
    )


def simulate_probe_delivery(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    rng: np.random.Generator,
    noise_power: float = 1.0,
) -> bool:
    """Run one probe frame through the full transceiver chain.

    The abstraction's per-tracked-bin post-projection SNRs are
    interpolated across the 64-bin OFDM grid and realised as a
    frequency-selective single-stream channel; a
    :data:`DEFAULT_PROBE_BITS` payload is convolutionally encoded,
    modulated, faded, hit with complex AWGN of ``noise_power`` per bin
    (the modem's unitary FFT scaling maps time-domain variance 1:1 to
    per-bin variance), and decoded by the real ZF + Viterbi receiver
    under perfect CSI.  Delivered means the decoded
    payload is bit-exact -- the same all-or-nothing criterion the
    abstraction's delivery coin models.

    Both fidelities therefore see the *same* channel; what the probe adds
    is the reality of coding, interleaving and hard-decision demapping
    that :func:`~repro.phy.esnr.packet_delivery_probability` compresses
    into a logistic.
    """
    snrs = np.asarray(subcarrier_snrs_db, dtype=float)
    if snrs.size == 0:
        return False
    bins = np.asarray(_subcarrier_bins(snrs.size), dtype=float)
    order = np.argsort(bins)
    snr_per_bin = np.interp(
        np.arange(_OFDM.fft_size, dtype=float), bins[order], snrs[order]
    )
    amplitude = np.sqrt(np.power(10.0, snr_per_bin / 10.0) * noise_power)

    bits = rng.integers(0, 2, size=DEFAULT_PROBE_BITS, dtype=np.uint8)
    body, layout = _PROBE_TX.build_body(
        [StreamConfig(bits=bits, mcs=mcs, precoder=np.array([1.0 + 0j]))]
    )
    grid = _MODEM.demodulate_grid(body[0])
    faded = _MODEM.modulate_grid(grid * amplitude[None, :])
    noise = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal(faded.size) + 1j * rng.standard_normal(faded.size)
    )
    # Under perfect CSI the receiver reads only the body, so the probe
    # builds no preamble and leaves its span silent.
    received = np.concatenate([np.zeros(layout.preamble_length, dtype=complex), faded + noise])
    estimate = ChannelEstimate(
        matrices=amplitude.astype(complex)[:, None, None],
        valid_bins=np.arange(_OFDM.fft_size),
    )
    decoded = _PROBE_RX.decode(received.reshape(1, -1), layout, channel_estimate=estimate)
    return bool(np.array_equal(decoded[0].bits, bits))


class FidelityEngine:
    """Per-simulation escalation state of the ``"auto"``/``"full"`` tiers.

    One engine lives on the round loop; :func:`override_verdict` is called
    for every evaluated reception group *after* the abstraction has drawn
    its delivery coin.  ``None`` means "keep the abstraction's verdict"
    (the group is confidently far from the cliff); a bool is the full-PHY
    verdict and replaces it.

    Escalated verdicts are memoized under the same structural key shape
    as the agents' measured-SNR memo -- ``(tx, rx, planned signature,
    concurrent signature, epoch signature of every involved node)`` -- so
    a repeated contention configuration pays the ~4 ms probe once, and a
    fault bumping any involved link's epoch retires exactly the entries
    that observed the old channel.  Because the verdict is computed from
    jitter-free SNRs and a dedicated :func:`phy_stream_rng` stream, the
    memo is a pure cost optimisation: recomputing any entry yields the
    identical bit.
    """

    def __init__(
        self,
        network,
        seed: int,
        mode: str = "auto",
        band_db: float = DEFAULT_BAND_DB,
    ) -> None:
        if mode not in ("auto", "full"):
            raise ConfigurationError(
                f"FidelityEngine handles modes ('auto', 'full'), not {mode!r}; "
                "the 'abstraction' tier runs without an engine"
            )
        self.network = network
        self.seed = seed
        self.mode = mode
        self.band_db = float(band_db)
        #: Reception groups examined / escalated to the PHY / memo hits
        #: among the escalations -- the numbers the benchmarks track.
        self.evaluations = 0
        self.escalations = 0
        self.memo_hits = 0
        self._memo: Dict[tuple, bool] = {}

    def in_band(self, subcarrier_snrs_db, mcs: MCS) -> bool:
        """Whether a stream's delivery margin falls in the uncertain band."""
        if self.mode == "full":
            return True
        return abs(delivery_margin_db(subcarrier_snrs_db, mcs)) <= self.band_db

    def override_verdict(
        self,
        transmitter_id: int,
        receiver_id: int,
        wanted_streams: Sequence[ScheduledStream],
        concurrent_streams: Sequence[ScheduledStream],
        measured_snrs: Dict[int, np.ndarray],
    ) -> Optional[bool]:
        """The PHY verdict of one reception group, or ``None`` to defer.

        ``measured_snrs`` are the per-stream SNRs the abstraction just
        used (including its suppression jitter); classification uses them
        so "uncertain" means *the abstraction's own prediction* is near
        the cliff.  The escalated verdict itself re-derives deterministic
        SNRs so it is a pure function of the memo key.
        """
        self.evaluations += 1
        escalate = any(
            self.in_band(measured_snrs[stream.stream_id], stream.mcs)
            for stream in wanted_streams
        )
        if not escalate:
            return None
        self.escalations += 1
        key = (
            transmitter_id,
            receiver_id,
            stream_signature(wanted_streams),
            stream_signature(concurrent_streams),
            self.network.epoch_signature(
                involved_node_ids(
                    wanted_streams,
                    concurrent_streams,
                    extra=(transmitter_id, receiver_id),
                )
            ),
        )
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        verdict = self._escalated_verdict(
            transmitter_id, receiver_id, wanted_streams, concurrent_streams, key
        )
        self._memo[key] = verdict
        return verdict

    def _escalated_verdict(
        self,
        transmitter_id: int,
        receiver_id: int,
        wanted_streams: Sequence[ScheduledStream],
        concurrent_streams: Sequence[ScheduledStream],
        key: tuple,
    ) -> bool:
        snrs = receiver_stream_snrs(
            self.network,
            receiver_id,
            list(wanted_streams),
            list(concurrent_streams),
            rng=None,
        )
        rng = phy_stream_rng(self.seed, transmitter_id, receiver_id, key)
        # One failed spatial stream fails the aggregate reception, the
        # same worst-stream rule the abstraction's min-probability uses.
        for stream in wanted_streams:
            if not simulate_probe_delivery(
                snrs[stream.stream_id],
                stream.mcs,
                rng,
                noise_power=self.network.noise_power,
            ):
                return False
        return True


# -- cross-fidelity validation -----------------------------------------------------


@dataclass
class LinkCheck:
    """Both fidelities' verdicts on one sampled (link, MCS) input."""

    transmitter_id: int
    receiver_id: int
    mcs_index: int
    esnr_db: float
    margin_db: float
    in_band: bool
    abstraction_probability: float
    abstraction_delivers: bool
    phy_delivered: int

    @property
    def phy_delivers(self) -> bool:
        """Majority verdict of the :data:`VALIDATION_TRIALS` probe trials."""
        return 2 * self.phy_delivered > VALIDATION_TRIALS

    @property
    def agree(self) -> bool:
        return self.abstraction_delivers == self.phy_delivers


@dataclass
class FidelityReport:
    """Calibrated agreement table of :func:`cross_validate_links`."""

    scenario: str
    seed: int
    band_db: float
    checks: List[LinkCheck] = field(default_factory=list)

    @property
    def outside_band(self) -> List[LinkCheck]:
        return [check for check in self.checks if not check.in_band]

    @property
    def inside_band(self) -> List[LinkCheck]:
        return [check for check in self.checks if check.in_band]

    @staticmethod
    def _agreement(checks: List[LinkCheck]) -> float:
        if not checks:
            return 1.0
        return sum(check.agree for check in checks) / len(checks)

    @property
    def agreement_outside_band(self) -> float:
        """Agreement where the abstraction's verdict would stand -- the
        rate that must exceed the pinned threshold."""
        return self._agreement(self.outside_band)

    @property
    def agreement_inside_band(self) -> float:
        """Agreement where ``"auto"`` escalates anyway; disagreement here
        is the band's justification, not a failure."""
        return self._agreement(self.inside_band)

    @property
    def escalation_fraction(self) -> float:
        if not self.checks:
            return 0.0
        return len(self.inside_band) / len(self.checks)

    def format_table(self) -> str:
        header = (
            f"cross-fidelity validation: scenario={self.scenario} seed={self.seed} "
            f"band=+/-{self.band_db:g} dB probe={DEFAULT_PROBE_BITS} bits"
        )
        columns = (
            f"{'link':>9}  {'mcs':>3}  {'esnr':>7}  {'margin':>7}  "
            f"{'band':>4}  {'p(model)':>8}  {'model':>5}  {'phy':>5}  agree"
        )
        rows = []
        for check in self.checks:
            rows.append(
                f"{check.transmitter_id:>4}->{check.receiver_id:<4} "
                f"{check.mcs_index:>4}  {check.esnr_db:>7.2f}  {check.margin_db:>+7.2f}  "
                f"{'in' if check.in_band else 'out':>4}  "
                f"{check.abstraction_probability:>8.3f}  "
                f"{'ok' if check.abstraction_delivers else 'fail':>5}  "
                f"{'ok' if check.phy_delivers else 'fail':>5}  "
                f"{'yes' if check.agree else 'NO':>5}"
            )
        summary = (
            f"agreement outside band: {self.agreement_outside_band:.3f} "
            f"({len(self.outside_band)} checks) | inside band: "
            f"{self.agreement_inside_band:.3f} ({len(self.inside_band)} checks) | "
            f"escalation fraction: {self.escalation_fraction:.3f}"
        )
        return "\n".join([header, columns, *rows, summary])


def _link_precoders(network, transmitter_id: int, receiver_id: int) -> np.ndarray:
    """Per-subcarrier maximum-ratio pre-coders from the true channel."""
    channel = network.true_channel(transmitter_id, receiver_id)
    _, _, vh = np.linalg.svd(channel)
    return np.conj(vh[:, 0, :])


def cross_validate_links(
    scenario: str,
    seed: int = 0,
    n_links: int = 8,
    config=None,
) -> FidelityReport:
    """Run both fidelities on sampled links and tabulate their agreement.

    Samples ``n_links`` traffic pairs from the real network of the
    registered scenario named ``scenario`` (placements and channels
    drawn exactly as a simulation run would, via
    :func:`repro.sim.runner.build_network`), computes each link's
    single-stream post-projection SNRs, and evaluates two MCS per link on
    *identical inputs*: the rate the simulator would select and its
    next-faster neighbour (which by construction sits at or below
    threshold, populating the uncertain region).  The abstraction's
    verdict is ``packet_delivery_probability >= 0.5``; the PHY's is the
    majority of :data:`VALIDATION_TRIALS` seeded probe frames of
    :data:`DEFAULT_PROBE_BITS` bits, and a check is in band when its
    margin lies within ``config``'s ``fidelity_band_db``.

    Every draw (link sample, probe bits, noise) comes from dedicated
    ``(seed, PHY_STREAM_TAG, ...)`` streams, so the report is a pure
    function of its arguments -- which is what lets the standing tier-1
    test pin its agreement rates.
    """
    from repro.sim.runner import build_network
    from repro.sim.scenarios import scenario_factory

    scenario = scenario_factory(scenario)()
    run_spec = RunSpec.resolve(scenario, config)
    band_db = run_spec.fidelity_band_db
    network = build_network(scenario, seed, run_spec)
    sampler = np.random.default_rng((seed, PHY_STREAM_TAG, 0x76616C))  # "val"
    pairs = list(scenario.pairs)
    count = min(int(n_links), len(pairs))
    picks = [pairs[i] for i in sampler.choice(len(pairs), size=count, replace=False)]

    report = FidelityReport(scenario=scenario.name, seed=seed, band_db=band_db)
    for pair in picks:
        tx = pair.transmitter.node_id
        rx = pair.receivers[0].node_id
        stream = ScheduledStream(
            stream_id=0,
            transmitter_id=tx,
            receiver_id=rx,
            precoders=_link_precoders(network, tx, rx),
            power=1.0,
            mcs=MCS_TABLE[0],
            payload_bits=DEFAULT_PROBE_BITS,
            start_us=0.0,
            end_us=100.0,
        )
        snrs = receiver_stream_snrs(network, rx, [stream], [stream], rng=None)[0]
        esnr = esnr_db(snrs)
        selected = mcs_for_esnr(esnr, BITRATE_MARGIN_DB)
        candidates = {selected.index}
        if selected.index + 1 < len(MCS_TABLE):
            candidates.add(selected.index + 1)
        for index in sorted(candidates):
            mcs = MCS_TABLE[index]
            probability = packet_delivery_probability(snrs, mcs, DEFAULT_PROBE_BITS)
            margin = delivery_margin_db(snrs, mcs)
            rng = phy_stream_rng(seed, tx, rx, ("validate", index))
            delivered = sum(
                simulate_probe_delivery(snrs, mcs, rng, noise_power=network.noise_power)
                for _ in range(VALIDATION_TRIALS)
            )
            report.checks.append(
                LinkCheck(
                    transmitter_id=tx,
                    receiver_id=rx,
                    mcs_index=index,
                    esnr_db=esnr,
                    margin_db=margin,
                    in_band=abs(margin) <= band_db,
                    abstraction_probability=probability,
                    abstraction_delivers=probability >= 0.5,
                    phy_delivered=int(delivered),
                )
            )
    return report
