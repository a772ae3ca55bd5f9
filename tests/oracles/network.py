"""Network oracles: the readable per-pair channel-draw loop, and the
whole-group response computation of the grouped contract."""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Tuple

import numpy as np

from oracles.channel import draw_link_reference
from repro.channel.multipath import (
    dft_twiddle,
    frequency_response_at_bins_batch,
    taps_from_normals,
)
from repro.sim.network import Network


class PerPairNetwork(Network):
    """A :class:`~repro.sim.network.Network` whose v2 ``"batched"``
    contract is drawn by the readable per-pair loop.

    One :func:`~oracles.channel.draw_link_reference` call per unordered
    station pair, in canonical order, with the reverse direction derived
    by reciprocity.  The production vectorized construction must match
    it bit for bit, down to the post-draw generator state.

    ``eager_responses`` holds every pair's response computed at draw
    time (``(a, b) -> (n_sub, N_b, M_a)``), the eager form the lazy bank
    is checked against.  The bank itself is fed each link's taps as its
    normals with unit scales (an exact multiply), so it serves the same
    responses through the one bank API.
    """

    def _draw_channels(self) -> None:
        assert self.channel_draws == "batched", "the oracle draws the v2 contract only"
        bins = self._subcarrier_indices()
        self.eager_responses: Dict[Tuple[int, int], np.ndarray] = {}
        groups: Dict[Tuple[int, int], dict] = {}
        for a, b in combinations(sorted(self.stations), 2):
            sta_a = self.stations[a]
            sta_b = self.stations[b]
            snr_db, channel = draw_link_reference(
                self.testbed,
                sta_a.location,
                sta_b.location,
                n_tx=sta_a.n_antennas,
                n_rx=sta_b.n_antennas,
                rng=self.rng,
            )
            self.eager_responses[(a, b)] = channel.frequency_response(64)[bins]
            group = groups.setdefault(
                (sta_a.n_antennas, sta_b.n_antennas),
                {"pairs": [], "normals": [], "snrs": []},
            )
            taps = channel.taps  # (n_taps, N_b, M_a)
            group["pairs"].append((a, b))
            group["normals"].append(np.stack((taps.real, taps.imag), axis=1))
            group["snrs"].append(snr_db)
        for group in groups.values():
            normals = np.stack(group["normals"])
            self.channels.add_group(
                group["pairs"], normals, np.ones(normals.shape[:2]), group["snrs"]
            )


def grouped_eager_responses(network: Network) -> Dict[Tuple[int, int], np.ndarray]:
    """Every pair's response of a grouped-contract network, computed the
    eager way: one :func:`frequency_response_at_bins_batch` over each
    whole antenna-shape group's kept normals and scales, as the network
    build did before responses were computed on first read.

    Returns ``(a, b) -> (n_sub, N_b, M_a)`` for every unordered pair.
    Reads the bank's kept draws without computing any slot.
    """
    assert network.channel_draws == "grouped", "the grouped contract only"
    bank = network.channels
    twiddle = dft_twiddle(network._subcarrier_indices(), network.testbed.n_taps)
    responses = {}
    for pairs, normals, scales in zip(bank._pair_groups, bank._normals, bank._scales):
        stack = frequency_response_at_bins_batch(taps_from_normals(normals, scales), twiddle)
        for (a, b), response in zip(pairs.tolist(), stack):
            responses[(a, b)] = response
    return responses
