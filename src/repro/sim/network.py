"""One simulated network instance: stations, placements and channels.

A :class:`Network` freezes everything that is random *per run* in the
paper's methodology -- the assignment of nodes to testbed locations and
the resulting channels -- so the MAC protocols under comparison see the
exact same propagation environment.

Channels are held in a :class:`ChannelBank`.  The build makes every
generator call of its draw contract and keeps, per antenna-shape group,
the draws that determine each pair's channel (tap normals, tap scales,
SNR) plus an index from a directed ``(tx, rx)`` link to ``(group, slot,
transposed)``.  A link's per-subcarrier response is computed the first
time a run reads it -- a run reads a small share of the pairs -- and
memoized read-only; the reciprocal direction is served as a transposed
*view* of the same memory, and the read-only flag guards that
shared-view invariant.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.channel.multipath import (
    dft_twiddle,
    frequency_response_at_bins_batch,
    frequency_response_batch,
    tap_scales,
    taps_from_normals,
)
from repro.channel.testbed import Testbed, default_testbed
from repro.exceptions import ConfigurationError, DimensionError
from repro.sim.node import Station, TrafficPair
from repro.sim.spec import check_subcarrier_count
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
    """Every station pair's channel, each response computed on first read.

    Channels drawn per unordered pair ``(a, b)`` (``a < b`` in canonical
    draw order) are kept per antenna-shape group as the draws that
    determine them: the raw tap normals ``(n_pairs_in_group, n_taps, 2,
    N, M)``, the per-pair tap scales ``(n_pairs_in_group, n_taps)`` (from
    the pair's delay spread and gain) and the per-pair average SNRs.  An
    index maps a *directed* ``(tx, rx)`` link to ``(group, slot,
    transposed)``.

    A run reads only the links whose streams are on the air -- under
    0.5% of the pairs of a 500-station network -- so a slot's ``(n_sub,
    N, M)`` response is computed the first time anything touches the
    link (:meth:`channel`, :meth:`channels`, :meth:`snapshot_links` or a
    fault kernel), through the bank's ``transform``, and memoized.  Every slot depends
    on its own normals alone, so the response is bit-identical to what a
    whole-group computation gives for that slot.  The reciprocal ``b ->
    a`` direction is served as a transposed **view** of the same memory.
    Every memoized response is non-writable: a consumer mutating a
    returned channel would silently corrupt the reverse direction and
    every memoized plan built from it, so mutation raises instead (the
    shared-view invariant; ``.copy()`` first for a scratch buffer).

    ``transform`` maps a ``(k, n_taps, N, M)`` stack of taps to its
    ``(k, n_sub, N, M)`` responses (see :class:`Network` for the one
    each draw contract uses).
    """

    def __init__(self, transform: Callable[[np.ndarray], np.ndarray]) -> None:
        self._transform = transform
        self._normals: List[np.ndarray] = []
        self._scales: List[np.ndarray] = []
        self._snrs: List[np.ndarray] = []
        #: Per-group ``slot -> response`` of every slot computed so far.
        self._responses: List[Dict[int, np.ndarray]] = []
        #: Per-group ``(n_pairs_in_group, 2)`` int64 arrays of unordered
        #: ``(a, b)`` station ids in slot order.  The directed-link index
        #: is derived lazily from these (see :meth:`_sorted_index`): one
        #: lexsorted key array searched with ``np.searchsorted`` replaces
        #: per-pair dict inserts, which would dominate bank construction
        #: at the 500-station tiers.
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
        normals: np.ndarray,
        scales: np.ndarray,
        snrs_db: Sequence[float],
    ) -> None:
        """Keep one antenna-shape group of drawn channels.

        ``pairs`` lists unordered ``(a, b)`` station ids in slot order,
        either as a sequence of ``(a, b)`` tuples or as an ``(n, 2)``
        integer array (the network build passes its id columns stacked,
        so no per-pair Python objects are made).  Slot ``i`` is the ``a
        -> b`` channel of ``pairs[i]``: ``normals[i]`` its ``(n_taps, 2,
        N, M)`` tap normals, ``scales[i]`` its ``(n_taps,)`` tap scales
        (:func:`~repro.channel.multipath.tap_scales`) and ``snrs_db[i]``
        its average SNR.  The bank keeps the arrays (read-only) and
        computes no response.
        """
        normals = np.asarray(normals, dtype=float)
        scales = np.asarray(scales, dtype=float)
        snrs = np.asarray(snrs_db, dtype=float)
        n = len(pairs)
        if normals.ndim != 5 or normals.shape[0] != n or normals.shape[2] != 2:
            raise DimensionError(
                f"normals must have shape ({n}, n_taps, 2, N, M), got {normals.shape}"
            )
        if scales.shape != normals.shape[:2]:
            raise DimensionError(
                f"scales must have shape {normals.shape[:2]}, got {scales.shape}"
            )
        if snrs.shape != (n,):
            raise DimensionError(
                f"snrs_db must have one entry per pair, got shape {snrs.shape}"
            )
        # A private copy: the bank marks its pair table read-only, which
        # must not reach back into an array the caller passed in.
        pair_array = np.array(pairs, dtype=np.int64).reshape(n, 2)
        if pair_array.size and (
            pair_array.min() < 0 or pair_array.max() >= _PAIR_KEY_BASE
        ):
            raise ConfigurationError(
                "station ids must be non-negative and fit in 31 bits to be "
                "packed into the pair-index keys"
            )
        for array in (normals, scales, snrs, pair_array):
            array.setflags(write=False)
        self._normals.append(normals)
        self._scales.append(scales)
        self._snrs.append(snrs)
        self._responses.append({})
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

    def _computed(self, group: int, slots: Sequence[int]) -> List[np.ndarray]:
        """The responses of distinct ``slots`` of one group, computing (in
        one batch) and memoizing the ones no read has computed yet."""
        computed = self._responses[group]
        missing = [slot for slot in slots if slot not in computed]
        if missing:
            # One slot (the common first read) is a basic slice: a fancy
            # index of one row would cost more than the whole transform.
            rows = slice(missing[0], missing[0] + 1) if len(missing) == 1 else missing
            taps = taps_from_normals(self._normals[group][rows], self._scales[group][rows])
            for slot, response in zip(missing, self._transform(taps)):
                response.setflags(write=False)
                computed[slot] = response
        return [computed[slot] for slot in slots]

    def channel(self, tx_id: int, rx_id: int) -> np.ndarray:
        """The read-only ``(n_sub, N, M)`` response of a directed link."""
        group, slot, transposed = self.lookup(tx_id, rx_id)
        response = self._responses[group].get(slot)
        if response is None:
            (response,) = self._computed(group, (slot,))
        return response.transpose(0, 2, 1) if transposed else response

    def channels(self, links: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
        """:meth:`channel` of every directed link in ``links``; the unread
        slots of each group are computed in one batch."""
        located = [self.lookup(tx_id, rx_id) for tx_id, rx_id in links]
        unread: Dict[int, Dict[int, None]] = {}
        for group, slot, _ in located:
            if slot not in self._responses[group]:
                unread.setdefault(group, {})[slot] = None
        for group, slots in unread.items():
            self._computed(group, list(slots))
        served = []
        for group, slot, transposed in located:
            response = self._responses[group][slot]
            served.append(response.transpose(0, 2, 1) if transposed else response)
        return served

    def snr_db(self, tx_id: int, rx_id: int) -> float:
        """The average SNR of a directed link (symmetric by reciprocity)."""
        group, slot, _ = self.lookup(tx_id, rx_id)
        return float(self._snrs[group][slot])

    # -- in-place update kernels -----------------------------------------------

    def scale_links(
        self,
        links: Sequence[Tuple[int, int]],
        amplitude_scale: float,
        snr_delta_db: float = 0.0,
    ) -> None:
        """Scale the responses of ``links`` in place, O(affected slots).

        The canonical response is scaled once per pair, which fades both
        directions at once (the reciprocal is a transposed view of the
        same memory); a link no read has computed yet is computed first,
        so fading it equals reading it, then fading it.  ``snr_delta_db``
        adjusts the stored link SNRs by the same episode (a fade of depth
        ``d`` dB passes ``amplitude_scale=10**(-d/20)``,
        ``snr_delta_db=-d``).
        """
        by_group: Dict[int, Dict[int, None]] = {}
        for tx_id, rx_id in links:
            group, slot, _ = self.lookup(tx_id, rx_id)
            by_group.setdefault(group, {})[slot] = None
        for group, unique in by_group.items():
            slots = list(unique)
            for response in self._computed(group, slots):
                with _writable(response):
                    response *= amplitude_scale
            snrs = self._snrs[group]
            with _writable(snrs):
                snrs[slots] += snr_delta_db

    def update_links(
        self, updates: Sequence[Tuple[int, int, np.ndarray, float]]
    ) -> None:
        """Overwrite the response and SNR of each link, in place.

        ``updates`` holds ``(tx_id, rx_id, response, snr_db)`` with the
        response in ``(tx, rx)`` orientation and the link's response
        shape (transposed automatically when the canonical stored
        direction is the reciprocal).  Every update is checked before any
        is written; a link no read has computed yet is computed first, so
        the check is against its own shape.  This is what makes restoring
        (or re-drawing) a faded link cheap even in the 500-station tiers.
        """
        writes = []
        for tx_id, rx_id, response, snr_db in updates:
            group, slot, transposed = self.lookup(tx_id, rx_id)
            (stored,) = self._computed(group, (slot,))
            data = np.asarray(response)
            if transposed:
                data = data.transpose(0, 2, 1)
            if data.shape != stored.shape:
                raise DimensionError(
                    f"link ({tx_id}, {rx_id}) update has shape {data.shape}, "
                    f"its stored response has shape {stored.shape}"
                )
            writes.append((self._snrs[group], slot, stored, data, float(snr_db)))
        for snrs, slot, stored, data, snr_db in writes:
            with _writable(stored, snrs):
                stored[...] = data
                snrs[slot] = snr_db

    def snapshot_links(
        self, links: Sequence[Tuple[int, int]]
    ) -> List[Tuple[np.ndarray, float]]:
        """Copies of ``links``' current responses (in ``(tx, rx)``
        orientation) and SNRs, suitable for a bit-exact
        :meth:`update_links` restore later."""
        return [
            (self.channel(tx_id, rx_id).copy(), self.snr_db(tx_id, rx_id))
            for tx_id, rx_id in links
        ]


@contextmanager
def _writable(*arrays: np.ndarray) -> Iterator[None]:
    """Let the fault kernels write ``arrays`` in place.

    The bank's arrays stay read-only to consumers at all times -- views
    handed out by :meth:`ChannelBank.channel` keep the non-writable flag
    they were created with -- so only these kernels, which re-freeze on
    exit, ever write.
    """
    for array in arrays:
        array.setflags(write=True)
    try:
        yield
    finally:
        for array in arrays:
            array.setflags(write=False)


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
        Number of (evenly spaced) OFDM data subcarriers tracked by the
        link abstraction, ``1..NUM_DATA_SUBCARRIERS`` (48).  16 keeps runs
        fast while retaining frequency selectivity; 48 tracks every data
        subcarrier.
    channel_draws:
        Which draw contract turns the generator into channels:

        * ``"batched"`` (default) -- the v2 contract: per pair (in
          canonical order) the shadowing draw, the line-of-sight coin
          and the tap normals, in two generator calls per pair (the tap
          normals and the next pair's shadowing normal are adjacent in
          the stream and fill one row).  The link budget and tap scales
          run as array code per antenna-shape group, in the build
          method the two contracts share; a read link's response is the
          padded 64-point FFT (on the contiguous axis) at the tracked
          bins.  The test suite asserts it bit-identical to a readable
          per-pair loop, down to the post-draw generator state.
        * ``"grouped"`` -- the v3 contract: randomness is consumed
          scalars-first (one shadowing draw for *all* pairs, one
          line-of-sight draw for all pairs, then ONE tap draw per
          antenna-shape group -- no per-pair rng calls at all); a read
          link's response is the DFT evaluated at the tracked bins (one
          BLAS matmul), and estimation noise is prefetched in stacked
          shape-grouped draws (:meth:`prefetch_estimates`).  Seeded
          results deliberately differ from v2, which is why selecting it
          rides the ``CACHE_SCHEMA_VERSION`` 3 bump
          (:mod:`repro.sim.sweep`).

    Construction computes no channel response: the :class:`ChannelBank`
    keeps every group's draws and computes a link's response the first
    time :meth:`true_channel` (or :meth:`true_channels`, which computes
    a receiver's unread links in one batch), :meth:`estimated_channel`,
    :meth:`prefetch_estimates` or a fault kernel reads it.  The
    generator calls -- and so the post-build generator state and every
    seeded result -- are the same as computing every response at build
    time; a slot's response is bit-identical however many slots are
    computed with it.
    """

    def __init__(
        self,
        stations: List[Station],
        pairs: List[TrafficPair],
        rng: np.random.Generator,
        testbed: Optional[Testbed] = None,
        n_subcarriers: int = 16,
        channel_draws: str = "batched",
    ) -> None:
        check_subcarrier_count(n_subcarriers)
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
        # Measurement noise comes from the construction generator until
        # reseed_estimation_noise() gives it a stream of its own.
        self._estimation_rng: np.random.Generator = rng
        self._estimate_memo: Dict[Tuple[int, int, bool], np.ndarray] = {}
        # Per-link channel epochs (canonical (min, max) pair -> bump
        # count).  Empty for every link that never changed, so the
        # static-network fast paths stay allocation-free.
        self._link_epochs: Dict[Tuple[int, int], int] = {}
        # Projection/zero-forcing results keyed by channel-stack content
        # (see :func:`repro.mimo.decoder.post_projection_snr_batch`);
        # content keys stay valid across fades and across protocols.
        self.zero_forcing_memo: dict = {}
        # Idle-medium SNRs and MCS of the traffic links, keyed (tx, rx,
        # n streams) and tagged with the link epoch they were computed at
        # (see :func:`repro.sim.link_abstraction.solo_link`); shared by
        # every protocol run on the network.
        self.solo_links: dict = {}

        self._place_stations()
        bins = self._subcarrier_indices()
        if channel_draws == "grouped":
            twiddle = dft_twiddle(bins, self.testbed.n_taps)
            transform = partial(frequency_response_at_bins_batch, twiddle=twiddle)
        else:
            transform = partial(frequency_response_batch, bins=bins)
        self.channels = ChannelBank(transform)
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

    def _pair_losses(self, ids: List[int], ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
        """Log-distance path loss of every canonical pair ``(ids[ai],
        ids[bi])``.

        Vectorized once through the
        :meth:`~repro.channel.testbed.Testbed.path_loss_at_distance`
        formula; elementwise it is bit-identical to evaluating each pair
        alone (the per-pair test oracle does).
        """
        x, y = np.array(
            [self.testbed.locations[self.stations[node].location] for node in ids],
            dtype=float,
        ).T
        return self.testbed.path_loss_at_distance(np.hypot(x[ai] - x[bi], y[ai] - y[bi]))

    def _draw_channels(self) -> None:
        """Draw every pair's channel under the network's draw contract.

        Both contracts share the canonical pair table (``a < b`` in
        sorted-id order), the all-pairs path loss, the link budget
        (:meth:`~repro.channel.testbed.Testbed.link_scalars_batch`), the
        antenna-shape groups and the tap scales; each group's tap
        normals, tap scales and SNRs go to the bank, which computes a
        response only when a run reads the link.  The contracts differ
        in the draw order and in the bank's transform (chosen in
        ``__init__``):

        * ``"grouped"`` (v3) draws scalars-first -- every pair's
          shadowing normal, every line-of-sight coin, then one tap draw
          per antenna-shape group in ``(n_tx, n_rx)`` order -- and
          evaluates the DFT at the tracked bins (one BLAS matmul;
          schema 8).
        * ``"batched"`` (v2) draws per pair, in canonical order: the
          shadowing normal, the coin, the tap normals.
          ``rng.normal(0, s)`` is ``s`` times one standard-normal draw,
          so a pair's tap normals and the next pair's shadowing normal
          are adjacent in the stream: each pair costs one ``random()``
          and one ``standard_normal(out=...)`` filling a row of its
          group's tap array whose extra last slot takes the next pair's
          shadowing normal.  The responses are the padded 64-point FFT at
          the tracked bins, bit-identical to the test suite's one-link-at-a-time
          oracle loop down to the post-draw generator state.

        A group's normals stay exactly as drawn -- the v2 rows are views
        of the fill blocks -- so the bank holds the stream's tap normals
        once and no response at all.

        Draws depend only on the sorted station ids, so the result is
        independent of station- and pair-list order.
        """
        ids = sorted(self.stations)
        n = len(ids)
        if n < 2:
            return
        testbed = self.testbed
        rng = self.rng
        n_taps = testbed.n_taps
        grouped = self.channel_draws == "grouped"

        # Canonical pair table: np.triu_indices walks the rows of the
        # nested (a < b) loop in order.
        ai, bi = np.triu_indices(n, k=1)
        n_pairs = ai.size
        losses = self._pair_losses(ids, ai, bi)
        antennas = np.array([self.stations[node].n_antennas for node in ids])

        base = int(antennas.max()) + 1
        shape_key = antennas[ai] * base + antennas[bi]  # n_tx * base + n_rx
        keys = np.flatnonzero(np.bincount(shape_key))  # sorted: (n_tx, n_rx) order
        groups = [np.flatnonzero(shape_key == key) for key in keys]  # canonical order
        if not grouped:  # v2 stores groups in order of first appearance
            order = np.argsort([rows[0] for rows in groups])
            keys, groups = keys[order], [groups[index] for index in order]
        shapes = [(int(key % base), int(key // base)) for key in keys]  # (n_rx, n_tx)

        if grouped:
            snrs, decays = testbed.link_scalars_batch(
                losses, rng.standard_normal(n_pairs), rng.random(n_pairs)
            )
            # Drawn lazily, one group at a time, after the scalars.
            raws = (
                rng.standard_normal((rows.size, n_taps, 2, r, m))
                for rows, (r, m) in zip(groups, shapes)
            )
        else:
            # One row per pair: its tap normals, then a slot for the next
            # pair's shadowing normal.
            blocks = [
                np.empty((rows.size, n_taps * 2 * r * m + 1))
                for rows, (r, m) in zip(groups, shapes)
            ]
            outs = [None] * n_pairs
            for rows, block in zip(groups, blocks):
                for row, out in zip(rows.tolist(), block):
                    outs[row] = out
            # The last pair has no next pair's shadowing normal to take.
            outs[-1] = outs[-1][:-1]
            shadowing = np.empty(n_pairs)
            shadowing[0] = rng.standard_normal()
            coins = []
            draw_coin, draw_normals = rng.random, rng.standard_normal
            for out in outs:
                coins.append(draw_coin())
                draw_normals(out=out)
            coins = np.array(coins)
            for rows, block in zip(groups, blocks):
                has_next = rows + 1 < n_pairs
                shadowing[rows[has_next] + 1] = block[has_next, -1]
            snrs, decays = testbed.link_scalars_batch(losses, shadowing, coins)
            raws = (
                block[:, :-1].reshape(rows.size, n_taps, 2, r, m)
                for rows, (r, m), block in zip(groups, shapes, blocks)
            )

        scales = tap_scales(n_taps, decays, db_to_linear(snrs))
        id_arr = np.array(ids)
        for rows, raw in zip(groups, raws):
            pairs = np.stack((id_arr[ai[rows]], id_arr[bi[rows]]), axis=1)
            self.channels.add_group(pairs, raw, scales[rows], snrs[rows])

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

    def true_channels(self, tx_ids: Sequence[int], rx_id: int) -> List[np.ndarray]:
        """:meth:`true_channel` of every ``tx -> rx_id`` link, in order.

        The links no run has read yet are computed together, one batch
        per antenna-shape group, instead of one transform call each --
        what a receiver needs when many transmitters are on the air.
        """
        if rx_id in tx_ids:
            raise ConfigurationError("a node has no channel to itself")
        return self.channels.channels([(tx_id, rx_id) for tx_id in tx_ids])

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

        The canonical response is scaled in place (computed first if no
        run has read the link yet), so both directions of the pair fade
        together (reciprocity).
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
        :meth:`reseed_estimation_noise` (the runner always installs one;
        before that, the construction generator).
        Under the ``"grouped"`` contract, :meth:`prefetch_estimates` can
        fill the memo for many links in stacked draws before the
        per-link queries arrive.
        """
        key = (tx_id, rx_id, reciprocity)
        memo = self._estimate_memo.get(key)
        if memo is not None:
            return memo
        true = self.true_channel(tx_id, rx_id)
        estimate = self.hardware.perturb_channel_batch(
            true[None], self._estimation_rng, reciprocity=reciprocity
        )[0]
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
        for (_, reciprocity), bucket in pending.items():
            stack = np.stack(list(bucket.values()))
            estimates = self.hardware.perturb_channel_batch(
                stack, self._estimation_rng, reciprocity=reciprocity
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
