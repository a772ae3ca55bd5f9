"""One simulated network instance: stations, placements and channels.

A :class:`Network` freezes everything that is random *per run* in the
paper's methodology -- the assignment of nodes to testbed locations and
the resulting channels -- so the MAC protocols under comparison see the
exact same propagation environment.

Channels are held in a :class:`ChannelBank`: one stacked read-only
tensor per antenna-shape group plus an index from a directed ``(tx,
rx)`` link to ``(group, slot, transposed)``.  The reciprocal direction
of every pair is served as a transposed *view* of the same memory (no
copies), which halves construction memory; the read-only flag guards the
shared-view invariant.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.channel.multipath import (
    MultipathChannel,
    frequency_response_at_bins_batch,
    frequency_response_batch,
)
from repro.channel.testbed import Testbed, default_testbed
from repro.exceptions import ConfigurationError, DimensionError
from repro.sim.node import Station, TrafficPair
from repro.utils.db import db_to_linear

__all__ = ["ChannelBank", "Network"]

#: The recognised channel-draw contracts, most recent first.  "grouped"
#: is the v3 contract (scalars-first, one tap draw per antenna-shape
#: group, estimation noise prefetched in stacked draws); "batched" is the
#: v2 contract (per-pair draw order, vectorized math).
DRAW_CONTRACTS = ("grouped", "batched")

#: Station ids are packed two-per-int64 (``a * 2**32 + b``) to index
#: directed links in :class:`ChannelBank`; ids must stay below 2**31 so
#: packed keys cannot overflow the signed 64-bit key array.
_PAIR_KEY_BASE = 1 << 31


@lru_cache(maxsize=None)
def _subcarrier_bins(n_subcarriers: int) -> np.ndarray:
    """The OFDM data bins tracked at a given subcarrier resolution.

    The bin choice is a pure function of ``n_subcarriers`` (the 64-point
    data-index layout is a protocol constant), so the lookup is computed
    once per resolution instead of rebuilding ``OfdmConfig`` for every
    network.  The cached array is marked read-only because it is shared
    between all networks of the process.
    """
    from repro.phy.ofdm import OfdmConfig

    data_bins = np.array(OfdmConfig().data_indices)
    if n_subcarriers >= data_bins.size:
        bins = data_bins
    else:
        picks = np.linspace(0, data_bins.size - 1, n_subcarriers).round().astype(int)
        bins = data_bins[picks]
    bins.setflags(write=False)
    return bins


class ChannelBank:
    """Structure-of-arrays storage of every station pair's channel.

    Channels drawn per unordered pair ``(a, b)`` (``a < b`` in canonical
    draw order) are stored as one stacked tensor per antenna-shape group
    -- shape ``(n_pairs_in_group, n_sub, N, M)`` -- plus an index
    mapping a *directed* ``(tx, rx)`` link to ``(group, slot,
    transposed)``.  The reciprocal ``b -> a`` direction is served as a
    read-only transposed **view** of the same memory instead of a
    ``.copy()``, halving construction memory.  Every stored array is
    marked non-writable: a consumer mutating a returned channel would
    silently corrupt the reverse direction and every memoized plan built
    from it, so mutation raises instead (the shared-view invariant;
    ``.copy()`` first for a scratch buffer).
    """

    def __init__(self) -> None:
        self._stacks: List[np.ndarray] = []
        self._snrs: List[np.ndarray] = []
        #: Per-group ``(n_pairs_in_group, 2)`` int64 arrays of unordered
        #: ``(a, b)`` station ids in slot order.  The directed-link index
        #: is derived lazily from these (see :meth:`_sorted_index`): one
        #: lexsorted key array searched with ``np.searchsorted`` replaces
        #: the old per-pair dict inserts, which dominated bank
        #: construction at the 500-station tiers.
        self._pair_groups: List[np.ndarray] = []
        self._sorted_keys: Optional[np.ndarray] = None
        self._sorted_groups: Optional[np.ndarray] = None
        self._sorted_slots: Optional[np.ndarray] = None
        #: Resolved ``(tx, rx) -> (group, slot, transposed)`` lookups.
        #: Hot paths query the same few directed links every round, so
        #: each binary search is paid once per link per topology.
        self._memo: Dict[Tuple[int, int], Tuple[int, int, bool]] = {}

    # -- construction ---------------------------------------------------------

    def add_group(
        self,
        pairs: Union[Sequence[Tuple[int, int]], np.ndarray],
        responses: np.ndarray,
        snrs_db: Sequence[float],
    ) -> None:
        """Store one antenna-shape group of drawn channels.

        ``pairs`` lists unordered ``(a, b)`` station ids in slot order,
        either as a sequence of ``(a, b)`` tuples or as an ``(n, 2)``
        integer array (the grouped build passes its id columns stacked,
        so no per-pair Python objects are made); ``responses`` is the
        stacked ``(len(pairs), n_sub, N, M)`` tensor whose slot ``i`` is
        the ``a -> b`` response of ``pairs[i]``, and ``snrs_db`` the
        per-pair average link SNRs.
        """
        responses = np.asarray(responses)
        snrs = np.asarray(snrs_db, dtype=float)
        if responses.ndim != 4 or responses.shape[0] != len(pairs):
            raise DimensionError(
                f"responses must have shape ({len(pairs)}, n_sub, N, M), "
                f"got {responses.shape}"
            )
        if snrs.shape != (len(pairs),):
            raise DimensionError(
                f"snrs_db must have one entry per pair, got shape {snrs.shape}"
            )
        # A private copy: the bank marks its pair table read-only, which
        # must not reach back into an array the caller passed in.
        pair_array = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        if pair_array.size and (
            pair_array.min() < 0 or pair_array.max() >= _PAIR_KEY_BASE
        ):
            raise ConfigurationError(
                "station ids must be non-negative and fit in 31 bits to be "
                "packed into the pair-index keys"
            )
        responses.setflags(write=False)
        snrs.setflags(write=False)
        pair_array.setflags(write=False)
        self._stacks.append(responses)
        self._snrs.append(snrs)
        self._pair_groups.append(pair_array)
        # Invalidate the lazily built sorted index and resolved lookups.
        self._sorted_keys = None
        self._sorted_groups = None
        self._sorted_slots = None
        self._memo.clear()

    # -- lookups --------------------------------------------------------------

    def _sorted_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lazily built ``(keys, groups, slots)`` sorted index.

        All stored pairs are packed into one int64 key per direction-
        canonical pair (``a * 2**32 + b``), lexsorted once, and searched
        with :func:`np.searchsorted`.  Building this is O(pairs log
        pairs) of pure array work -- no per-pair Python dict inserts --
        and is amortised over every lookup until the next
        :meth:`add_group`.
        """
        if self._sorted_keys is None:
            if self._pair_groups:
                pairs = np.concatenate(self._pair_groups, axis=0)
                groups = np.repeat(
                    np.arange(len(self._pair_groups), dtype=np.int64),
                    [len(block) for block in self._pair_groups],
                )
                slots = np.concatenate(
                    [np.arange(len(block), dtype=np.int64) for block in self._pair_groups]
                )
                keys = pairs[:, 0] * (1 << 32) + pairs[:, 1]
                order = np.argsort(keys, kind="stable")
                self._sorted_keys = keys[order]
                self._sorted_groups = groups[order]
                self._sorted_slots = slots[order]
            else:
                empty = np.empty(0, dtype=np.int64)
                self._sorted_keys = empty
                self._sorted_groups = empty
                self._sorted_slots = empty
        return self._sorted_keys, self._sorted_groups, self._sorted_slots

    def _locate(self, a: int, b: int) -> Optional[Tuple[int, int]]:
        """``(group, slot)`` storing the directed pair ``(a, b)``, if any."""
        keys, groups, slots = self._sorted_index()
        key = (a << 32) + b
        position = int(np.searchsorted(keys, key))
        if position < keys.size and keys[position] == key:
            return int(groups[position]), int(slots[position])
        return None

    def lookup(self, tx_id: int, rx_id: int) -> Tuple[int, int, bool]:
        """``(group, slot, transposed)`` of a directed link.

        ``transposed`` is ``True`` when the link is served as the
        transposed view of the stored reciprocal direction.  Raises
        ``KeyError`` for a link no group covers.
        """
        link = (tx_id, rx_id)
        entry = self._memo.get(link)
        if entry is None:
            found = self._locate(tx_id, rx_id)
            if found is not None:
                entry = (found[0], found[1], False)
            else:
                found = self._locate(rx_id, tx_id)
                if found is None:
                    raise KeyError(link)
                entry = (found[0], found[1], True)
            self._memo[link] = entry
        return entry

    def channel(self, tx_id: int, rx_id: int) -> np.ndarray:
        """The read-only ``(n_sub, N, M)`` response of a directed link."""
        group, slot, transposed = self.lookup(tx_id, rx_id)
        response = self._stacks[group][slot]
        return response.transpose(0, 2, 1) if transposed else response

    def snr_db(self, tx_id: int, rx_id: int) -> float:
        """The average SNR of a directed link (symmetric by reciprocity)."""
        group, slot, _ = self.lookup(tx_id, rx_id)
        return float(self._snrs[group][slot])

    # -- in-place update kernels -----------------------------------------------

    def _writable_group(self, group: int):
        """Context values for an in-place write to one group's arrays.

        The stacks stay read-only to consumers at all times -- views
        handed out by :meth:`channel` keep the non-writable flag they
        were created with -- so only these kernels, which re-freeze in a
        ``finally``, ever write.
        """
        return self._stacks[group], self._snrs[group]

    def scale_links(
        self,
        links: Sequence[Tuple[int, int]],
        amplitude_scale: float,
        snr_delta_db: float = 0.0,
    ) -> None:
        """Scale the stored tensors of ``links`` in place, O(affected slots).

        The canonical stored tensor is scaled once per link, which fades
        both directions at once (the reciprocal is a transposed view of
        the same memory).  Affected slots are grouped per antenna-shape
        group and written with one fancy-indexed multiply each -- no
        group is rebuilt.  ``snr_delta_db`` adjusts the stored link SNRs
        by the same episode (a fade of depth ``d`` dB passes
        ``amplitude_scale=10**(-d/20)``, ``snr_delta_db=-d``).
        """
        by_group: Dict[int, List[int]] = {}
        for tx_id, rx_id in links:
            group, slot, _ = self.lookup(tx_id, rx_id)
            by_group.setdefault(group, []).append(slot)
        for group, slots in by_group.items():
            stack, snrs = self._writable_group(group)
            stack.setflags(write=True)
            snrs.setflags(write=True)
            try:
                stack[slots] *= amplitude_scale
                snrs[slots] += snr_delta_db
            finally:
                stack.setflags(write=False)
                snrs.setflags(write=False)

    def update_links(
        self, updates: Sequence[Tuple[int, int, np.ndarray, float]]
    ) -> None:
        """Replace the stored tensor and SNR of each link, in place.

        ``updates`` holds ``(tx_id, rx_id, response, snr_db)`` with the
        response in ``(tx, rx)`` orientation and the slot's stored shape
        (transposed automatically when the canonical stored direction is
        the reciprocal).  Writes are batched per group into one stacked
        fancy-index assignment -- O(affected slots), never a rebuild --
        which is what makes restoring (or re-drawing) a faded link cheap
        even in the 500-station tiers.
        """
        grouped: Dict[int, Tuple[List[int], List[np.ndarray], List[float]]] = {}
        for tx_id, rx_id, response, snr_db in updates:
            group, slot, transposed = self.lookup(tx_id, rx_id)
            data = np.asarray(response)
            if transposed:
                data = data.transpose(0, 2, 1)
            stack = self._stacks[group]
            if data.shape != stack.shape[1:]:
                raise DimensionError(
                    f"link ({tx_id}, {rx_id}) update has shape {data.shape}, "
                    f"stored slots have shape {stack.shape[1:]}"
                )
            slots, tensors, snr_values = grouped.setdefault(group, ([], [], []))
            slots.append(slot)
            tensors.append(data)
            snr_values.append(float(snr_db))
        for group, (slots, tensors, snr_values) in grouped.items():
            stack, snrs = self._writable_group(group)
            stack.setflags(write=True)
            snrs.setflags(write=True)
            try:
                stack[slots] = np.stack(tensors)
                snrs[slots] = snr_values
            finally:
                stack.setflags(write=False)
                snrs.setflags(write=False)

    def snapshot_links(
        self, links: Sequence[Tuple[int, int]]
    ) -> List[Tuple[np.ndarray, float]]:
        """Copies of ``links``' current tensors (in ``(tx, rx)``
        orientation) and SNRs, suitable for a bit-exact
        :meth:`update_links` restore later."""
        return [
            (self.channel(tx_id, rx_id).copy(), self.snr_db(tx_id, rx_id))
            for tx_id, rx_id in links
        ]


class Network:
    """Stations plus the (true) channels between every pair of them.

    Parameters
    ----------
    stations:
        All nodes in the network.
    pairs:
        The transmitter-receiver pairs with traffic.
    rng:
        Random generator used for placements, fading and estimation error.
    testbed:
        The synthetic deployment; defaults to :func:`default_testbed`.
    n_subcarriers:
        Number of (evenly spaced) OFDM subcarriers tracked by the link
        abstraction.  16 keeps runs fast while retaining frequency
        selectivity; use 64 for full fidelity.
    forced_link_snrs_db:
        Optional map ``(tx_id, rx_id) -> SNR`` overriding the geometric
        link budget for controlled experiments.
    channel_draws:
        Which draw contract turns the generator into channels:

        * ``"batched"`` (default) -- the v2 contract: per pair (in
          canonical order) the shadowing draw, the line-of-sight coin
          and one tap-normal draw, with tap scaling and the 64-point FFT
          vectorized per antenna-shape group.  The test suite asserts
          it bit-identical to a readable per-pair loop, down to the
          post-draw generator state.
        * ``"grouped"`` -- the v3 contract: randomness is consumed
          scalars-first (one shadowing draw for *all* pairs, one
          line-of-sight draw for all pairs, then ONE tap draw per
          antenna-shape group -- no per-pair rng calls at all) and
          estimation noise is prefetched in stacked shape-grouped draws
          (:meth:`prefetch_estimates`).  Seeded results deliberately
          differ from v2, which is why selecting it rides the
          ``CACHE_SCHEMA_VERSION`` 3 bump (:mod:`repro.sim.sweep`).
    """

    def __init__(
        self,
        stations: List[Station],
        pairs: List[TrafficPair],
        rng: np.random.Generator,
        testbed: Optional[Testbed] = None,
        n_subcarriers: int = 16,
        forced_link_snrs_db: Optional[Dict[Tuple[int, int], float]] = None,
        channel_draws: str = "batched",
    ) -> None:
        if n_subcarriers < 1:
            raise ConfigurationError("need at least one subcarrier")
        if channel_draws not in DRAW_CONTRACTS:
            raise ConfigurationError(
                f"unknown channel_draws {channel_draws!r}; "
                f"choose one of {list(DRAW_CONTRACTS)}"
            )
        self.stations: Dict[int, Station] = {s.node_id: s for s in stations}
        if len(self.stations) != len(stations):
            raise ConfigurationError("station ids must be unique")
        self.pairs = list(pairs)
        self.rng = rng
        self.testbed = testbed or default_testbed()
        self.n_subcarriers = n_subcarriers
        self.noise_power = 1.0
        self.hardware: HardwareProfile = self.testbed.hardware
        self.channel_draws = channel_draws
        self._forced_snrs = dict(forced_link_snrs_db or {})
        self._estimation_rng: Optional[np.random.Generator] = None
        self._estimate_memo: Dict[Tuple[int, int, bool], np.ndarray] = {}
        # Per-link channel epochs (canonical (min, max) pair -> bump
        # count).  Empty for every link that never changed, so the
        # static-network fast paths stay allocation-free.
        self._link_epochs: Dict[Tuple[int, int], int] = {}
        # Projection/zero-forcing results keyed by channel-stack content
        # (see :func:`repro.mimo.decoder.post_projection_snr_batch`);
        # content keys stay valid across fades and across protocols.
        self.zero_forcing_memo: dict = {}

        self._place_stations()
        self.channels = ChannelBank()
        if channel_draws == "grouped":
            self._draw_channels_grouped()
        else:
            self._draw_channels()

    # -- construction helpers -----------------------------------------------------

    def _place_stations(self) -> None:
        placements = self.testbed.place_nodes(len(self.stations), self.rng)
        # Assign locations in sorted-id order (not station-list order) so
        # the node-id -> location mapping -- and therefore every channel
        # -- never depends on how the caller ordered the station list.
        for node_id, location in zip(sorted(self.stations), placements):
            self.stations[node_id].location = int(location)

    def _subcarrier_indices(self) -> np.ndarray:
        return _subcarrier_bins(self.n_subcarriers)

    def _pair_iter(self):
        """Unordered station pairs in canonical draw order, with the
        forced SNR (or ``None``) of each."""
        ids = sorted(self.stations)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                forced = self._forced_snrs.get((a, b), self._forced_snrs.get((b, a)))
                yield a, b, forced

    def _pair_losses(self, ids: List[int]) -> np.ndarray:
        """Log-distance path loss of every placed-location pair.

        Vectorized once through the same
        :meth:`~repro.channel.testbed.Testbed.path_loss_at_distance`
        formula (and hypot/log10 ufuncs) the scalar per-pair path
        evaluates -- bit-identical elementwise.
        """
        coords = np.array(
            [self.testbed.locations[self.stations[node].location] for node in ids],
            dtype=float,
        )
        deltas = coords[:, None, :] - coords[None, :, :]
        return self.testbed.path_loss_at_distance(
            np.hypot(deltas[..., 0], deltas[..., 1])
        )

    def _forced_snr_rows(self, ids: List[int]) -> Optional[np.ndarray]:
        """Forced SNR per canonical pair row (``NaN`` = unforced).

        Matches the precedence of :meth:`_pair_iter`: a ``(a, b)`` entry
        with ``a < b`` wins over its ``(b, a)`` mirror.
        """
        if not self._forced_snrs:
            return None
        n = len(ids)
        index_of = {node: row for row, node in enumerate(ids)}
        forced = np.full(n * (n - 1) // 2, np.nan)
        for prefer_forward in (False, True):
            for (x, y), snr in self._forced_snrs.items():
                if x == y or x not in index_of or y not in index_of:
                    continue
                if (x < y) != prefer_forward:
                    continue
                i, j = sorted((index_of[x], index_of[y]))
                row = i * n - i * (i + 1) // 2 + (j - i - 1)
                forced[row] = float(snr)
        return forced

    def _draw_channels_grouped(self) -> None:
        """Draw every pair's channel under the ``"grouped"`` v3 contract.

        Randomness is consumed **scalars-first**, with no per-pair rng
        calls at all:

        1. one ``rng.normal`` call draws every pair's shadowing, in
           canonical pair order (forced-SNR pairs draw and discard
           theirs, so the stream layout depends only on the pair count);
        2. one ``rng.random`` call draws every line-of-sight coin;
        3. one ``rng.standard_normal`` call per antenna-shape group
           draws all of that group's tap normals -- groups ordered by
           ``(n_tx, n_rx)``, pairs inside a group in canonical order.

        Frequency responses are evaluated directly at the tracked bins
        (:func:`~repro.channel.multipath.frequency_response_at_bins_batch`,
        one BLAS matmul per group), skipping the padded 64-point FFT, and
        each group reaches the :class:`ChannelBank` with its station ids
        as one ``(n, 2)`` array -- no per-pair Python objects.  Because
        draws depend only on the *sorted* station ids, the result is
        independent of station- and pair-list order (asserted by the
        test suite).  The draw order deliberately differs from the v2
        contracts -- it removes their ~3 small rng calls per pair --
        which is why this contract rode the ``CACHE_SCHEMA_VERSION`` 3
        bump; the matmul's ulp-level arithmetic is schema 8.
        """
        ids = sorted(self.stations)
        n = len(ids)
        if n < 2:
            return
        bins = self._subcarrier_indices()
        testbed = self.testbed
        n_taps = testbed.n_taps

        # Canonical pair table: np.triu_indices walks rows in the exact
        # order of _pair_iter's nested loop.
        ai, bi = np.triu_indices(n, k=1)
        losses = self._pair_losses(ids)[ai, bi]
        antennas = np.array([self.stations[node].n_antennas for node in ids])
        n_tx = antennas[ai]
        n_rx = antennas[bi]

        snrs, decays = testbed.draw_link_scalars_batch(
            losses, self.rng, forced_snr_db=self._forced_snr_rows(ids)
        )

        id_arr = np.array(ids)
        shape_key = n_tx * (int(antennas.max()) + 1) + n_rx
        for key in np.unique(shape_key):  # sorted == (n_tx, n_rx) lexicographic
            rows = np.flatnonzero(shape_key == key)  # ascending == canonical order
            m, r = int(n_tx[rows[0]]), int(n_rx[rows[0]])
            raw = self.rng.standard_normal((rows.size, n_taps, 2, r, m))
            taps = MultipathChannel.random_batch(
                r,
                m,
                rng=None,
                n_channels=rows.size,
                n_taps=n_taps,
                decay_samples=decays[rows],
                average_gain=db_to_linear(snrs[rows]),
                raw=raw,
            )
            responses = frequency_response_at_bins_batch(taps, bins)
            pairs = np.stack((id_arr[ai[rows]], id_arr[bi[rows]]), axis=1)
            self.channels.add_group(pairs, responses, snrs[rows])

    def _draw_channels(self) -> None:
        """Draw every pair's channel with batched per-group math (v2).

        Random numbers are consumed in the order of a readable per-pair
        :meth:`~repro.channel.testbed.Testbed.link` loop -- per pair:
        shadowing, the line-of-sight coin, then the tap normals in one
        call -- so the result is bit-identical to it.  Everything downstream of the draws
        (path loss, tap scaling, the 64-point FFT, the subcarrier
        selection) runs once per antenna-shape group instead of once per
        pair, which is what makes 100-200 station construction cheap.
        """
        if not self.stations:
            return
        bins = self._subcarrier_indices()
        testbed = self.testbed
        n_taps = testbed.n_taps

        ids = sorted(self.stations)
        losses = self._pair_losses(ids)
        index_of = {node: row for row, node in enumerate(ids)}

        # Pass 1: the per-pair draws, in canonical order.  Only the three
        # rng calls (and bookkeeping) remain per pair; the draw sequence
        # itself is defined once, in Testbed.draw_link_scalars.
        groups: Dict[Tuple[int, int], dict] = {}
        rng = self.rng
        for a, b, forced in self._pair_iter():
            sta_a = self.stations[a]
            sta_b = self.stations[b]
            snr, decay = testbed.draw_link_scalars(
                sta_a.location,
                sta_b.location,
                rng,
                snr_db=forced,
                path_loss_db=losses[index_of[a], index_of[b]],
            )
            n_tx = sta_a.n_antennas
            n_rx = sta_b.n_antennas
            raw = rng.standard_normal((n_taps, 2, n_rx, n_tx))
            group = groups.setdefault(
                (n_tx, n_rx), {"pairs": [], "snrs": [], "decays": [], "raws": []}
            )
            group["pairs"].append((a, b))
            group["snrs"].append(snr)
            group["decays"].append(decay)
            group["raws"].append(raw)

        # Pass 2: per antenna-shape group, scale all taps and compute all
        # frequency responses in one stacked FFT + fancy-index pass.
        for (n_tx, n_rx), group in groups.items():
            snrs = np.asarray(group["snrs"], dtype=float)
            taps = MultipathChannel.random_batch(
                n_rx,
                n_tx,
                rng=None,
                n_channels=len(group["pairs"]),
                n_taps=n_taps,
                decay_samples=np.asarray(group["decays"]),
                average_gain=db_to_linear(snrs),
                raw=np.stack(group["raws"]),
            )
            responses = frequency_response_batch(taps, 64)[:, bins]  # (C, n_sub, N, M)
            self.channels.add_group(group["pairs"], responses, snrs)

    # -- lookups ---------------------------------------------------------------------

    def station(self, node_id: int) -> Station:
        """The station with the given id."""
        return self.stations[node_id]

    def link_snr_db(self, tx_id: int, rx_id: int) -> float:
        """The average SNR of the link between two stations."""
        return self.channels.snr_db(tx_id, rx_id)

    def true_channel(self, tx_id: int, rx_id: int) -> np.ndarray:
        """The true per-subcarrier channel ``(n_subcarriers, N_rx, M_tx)``.

        The returned array is **read-only**: the reciprocal direction is
        a transposed view of the same memory (see :class:`ChannelBank`),
        so mutating it would corrupt both directions -- ``.copy()``
        first if a writable scratch buffer is needed.
        """
        if tx_id == rx_id:
            raise ConfigurationError("a node has no channel to itself")
        return self.channels.channel(tx_id, rx_id)

    # -- dynamic channels (fault injection) --------------------------------------

    @property
    def link_epochs(self) -> Dict[Tuple[int, int], int]:
        """Read-only view of every bumped link's epoch (empty while the
        network is static).  The invariant layer reads this to assert
        epochs are monotone; mutate only via :meth:`bump_link_epoch`."""
        return self._link_epochs

    def bump_link_epoch(self, a: int, b: int) -> None:
        """Record that the channel between two stations changed.

        Increments the link's epoch and evicts exactly that link's
        entries from the estimate memo (both directions, both
        reciprocity flavours) -- the rest of the memo stays valid, so a
        fade on one link never forces the network to re-measure
        everything.  Plan-cache entries are not evicted here: their keys
        embed :meth:`epoch_signature`, so entries built against the old
        epoch simply stop being hit.
        """
        key = (a, b) if a < b else (b, a)
        self._link_epochs[key] = self._link_epochs.get(key, 0) + 1
        for reciprocity in (False, True):
            self._estimate_memo.pop((a, b, reciprocity), None)
            self._estimate_memo.pop((b, a, reciprocity), None)

    def epoch_signature(self, node_ids: Iterable[int]) -> tuple:
        """The epochs of every bumped link among ``node_ids``, as a
        hashable cache-key component.

        Returns ``()`` while no link has ever changed (the static case
        -- a cheap guard on the empty dict), so epoch-keying is free
        until faults actually occur.  Otherwise a sorted tuple of
        ``((a, b), epoch)`` for bumped links with both endpoints in the
        set: a cached plan keyed with this signature is hit only while
        every channel it could have read is unchanged, which is the
        exact-invalidation contract the fault layer relies on.
        """
        if not self._link_epochs:
            return ()
        ids = set(node_ids)
        return tuple(
            sorted(
                (pair, epoch)
                for pair, epoch in self._link_epochs.items()
                if pair[0] in ids and pair[1] in ids
            )
        )

    def snapshot_link(self, tx_id: int, rx_id: int) -> Tuple[np.ndarray, float]:
        """A ``(response copy, snr_db)`` snapshot of one directed link,
        for bit-exact restore via :meth:`restore_link`."""
        return self.channels.snapshot_links([(tx_id, rx_id)])[0]

    def fade_link(self, tx_id: int, rx_id: int, depth_db: float) -> None:
        """Apply a deep fade: scale the link's channel down by
        ``depth_db`` (amplitude ``10**(-depth/20)``) and bump its epoch.

        The stored canonical tensor is scaled in place, so both
        directions of the pair fade together (reciprocity).
        """
        depth = float(depth_db)
        self.channels.scale_links(
            [(tx_id, rx_id)], 10.0 ** (-depth / 20.0), snr_delta_db=-depth
        )
        self.bump_link_epoch(tx_id, rx_id)

    def restore_link(
        self, tx_id: int, rx_id: int, response: np.ndarray, snr_db: float
    ) -> None:
        """Write a snapshot back (ending a fade) and bump the epoch.

        With the :meth:`snapshot_link` taken before the fade this is
        bit-exact: an ended fade leaves the channel identical to one
        that never faded.
        """
        self.channels.update_links([(tx_id, rx_id, response, snr_db)])
        self.bump_link_epoch(tx_id, rx_id)

    def reseed_estimation_noise(self, seed) -> None:
        """Give channel-estimation noise its own seeded random stream.

        :meth:`estimated_channel` draws measurement noise on every call.
        By default those draws come from the network's construction
        generator, which makes a protocol's estimates depend on how much
        randomness *previously simulated protocols* consumed.  The runner
        calls this at the start of every simulation (seeded from the
        simulation seed) so each (protocol, seed) simulation sees an
        estimation-noise stream that is independent of execution order --
        the property that lets sweeps run protocols in parallel, in any
        order, or out of a cache and still match a serial run bit for bit.

        ``seed`` is anything :func:`numpy.random.default_rng` accepts.
        Reseeding also clears the per-simulation estimate memo (see
        :meth:`estimated_channel`), so a new simulation re-measures every
        channel once from its own stream.
        """
        self._estimation_rng = np.random.default_rng(seed)
        self._estimate_memo.clear()

    def estimated_channel(
        self, tx_id: int, rx_id: int, reciprocity: bool = False
    ) -> np.ndarray:
        """A noisy estimate of the channel, as a node would measure it.

        ``reciprocity=True`` models an estimate derived from the reverse
        direction (what a joiner does with overheard CTS headers), which
        carries the additional calibration error of §2's footnote 2.

        Channels are static within a run, so a node measures each channel
        *once* (on the first preamble it overhears) and reuses that
        estimate for the rest of the simulation: the first call per
        ``(tx, rx, reciprocity)`` draws measurement noise, later calls
        return the memoized estimate.  This static-channel invariant is
        what makes transmission planning a pure function of the
        contention configuration -- the property the plan cache of
        :mod:`repro.mac.plan` relies on.  :meth:`reseed_estimation_noise`
        (called by the runner at the start of every simulation) clears
        the memo.

        Measurement noise is drawn from the stream installed by
        :meth:`reseed_estimation_noise` when one is set (the runner always
        sets one), falling back to the construction generator otherwise.
        Under the ``"grouped"`` contract, :meth:`prefetch_estimates` can
        fill the memo for many links in stacked draws before the
        per-link queries arrive.
        """
        key = (tx_id, rx_id, reciprocity)
        memo = self._estimate_memo.get(key)
        if memo is not None:
            return memo
        true = self.true_channel(tx_id, rx_id)
        rng = self._estimation_rng if self._estimation_rng is not None else self.rng
        estimate = self.hardware.perturb_channel(true, rng, reciprocity=reciprocity)
        estimate.setflags(write=False)
        self._estimate_memo[key] = estimate
        return estimate

    def prefetch_estimates(self, links: Iterable[Tuple[int, int, bool]]) -> None:
        """Measure a batch of links now, in stacked shape-grouped draws.

        Under the ``"grouped"`` (v3) draw contract the links of a
        contention configuration are measured together: the unmemoized
        queries are grouped by (channel shape, reciprocity) in
        first-appearance order and each group draws its measurement
        noise in one
        :meth:`~repro.channel.hardware.HardwareProfile.perturb_channel_batch`
        call.  Later :meth:`estimated_channel` calls hit the memo.

        Under the v2 ``"batched"`` contract this is a **no-op**: they keep the lazy one-link-at-a-time draw order so
        seeded v2 results stay reproducible.

        ``links`` is an iterable of ``(tx_id, rx_id, reciprocity)``.
        Prefetching is deterministic but *order-sensitive* (like every
        draw), so callers must pass links in a deterministic order --
        the MAC layers pass them in medium/receiver order.
        """
        if self.channel_draws != "grouped":
            return
        pending: Dict[Tuple[tuple, bool], Dict[tuple, np.ndarray]] = {}
        for tx_id, rx_id, reciprocity in links:
            key = (tx_id, rx_id, bool(reciprocity))
            if key in self._estimate_memo:
                continue
            true = self.true_channel(tx_id, rx_id)
            bucket = pending.setdefault((true.shape, bool(reciprocity)), {})
            bucket.setdefault(key, true)
        if not pending:
            return
        rng = self._estimation_rng if self._estimation_rng is not None else self.rng
        for (_, reciprocity), bucket in pending.items():
            stack = np.stack(list(bucket.values()))
            estimates = self.hardware.perturb_channel_batch(
                stack, rng, reciprocity=reciprocity
            )
            estimates.setflags(write=False)
            for index, key in enumerate(bucket):
                self._estimate_memo[key] = estimates[index]

    # -- summary ---------------------------------------------------------------------

    def describe(self) -> str:
        """A short human-readable summary of the drawn network."""
        lines = []
        for pair in self.pairs:
            tx = pair.transmitter
            for receiver in pair.receivers:
                snr = self.link_snr_db(tx.node_id, receiver.node_id)
                lines.append(
                    f"{tx.name} ({tx.n_antennas} ant) -> {receiver.name} "
                    f"({receiver.n_antennas} ant): {snr:.1f} dB"
                )
        return "\n".join(lines)
