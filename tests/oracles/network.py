"""Network oracle: the readable per-pair channel-draw loop."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.sim.network import Network


class PerPairNetwork(Network):
    """A :class:`~repro.sim.network.Network` whose v2 ``"batched"``
    contract is drawn by the readable per-pair loop.

    One :meth:`~repro.channel.testbed.Testbed.link` call per unordered
    station pair, in canonical order, with the reverse direction derived
    by reciprocity.  The production vectorized construction must match
    it bit for bit, down to the post-draw generator state.
    """

    def _pair_iter(self):
        """Unordered station pairs in canonical draw order, with the
        forced SNR (or ``None``) of each; a ``(a, b)`` entry with
        ``a < b`` wins over its ``(b, a)`` mirror."""
        ids = sorted(self.stations)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                forced = self._forced_snrs.get((a, b), self._forced_snrs.get((b, a)))
                yield a, b, forced

    def _draw_channels(self) -> None:
        assert self.channel_draws == "batched", "the oracle draws the v2 contract only"
        bins = self._subcarrier_indices()
        groups: Dict[Tuple[int, int], dict] = {}
        for a, b, forced in self._pair_iter():
            sta_a = self.stations[a]
            sta_b = self.stations[b]
            link = self.testbed.link(
                sta_a.location,
                sta_b.location,
                n_tx=sta_a.n_antennas,
                n_rx=sta_b.n_antennas,
                rng=self.rng,
                snr_db=forced,
            )
            response = link.frequency_response(64)[bins]  # (n_sub, N_b, M_a)
            group = groups.setdefault(
                (sta_a.n_antennas, sta_b.n_antennas),
                {"pairs": [], "responses": [], "snrs": []},
            )
            group["pairs"].append((a, b))
            group["responses"].append(response)
            group["snrs"].append(link.snr_db)
        for group in groups.values():
            self.channels.add_group(
                group["pairs"], np.stack(group["responses"]), group["snrs"]
            )
