"""End-to-end multi-antenna transmit and receive chains.

The transmitter turns one or more spatial streams (bits + MCS +
per-subcarrier pre-coding vector) into per-antenna time-domain samples:

    bits -> FEC (scramble, code, puncture, interleave) -> constellation
         -> per-subcarrier pre-coding -> OFDM -> preamble + body samples

The preamble is pre-coded with the same vectors as the data
(paper footnote 1), so a receiver estimating the channel from the
preamble directly obtains the *effective* channel of each stream and
never needs to know the pre-coding vectors themselves.

The receiver performs the inverse chain: given the effective-channel
estimate, per-subcarrier zero-forcing over all streams it can see, which
is exactly the "solve the linear system" decoding of §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DecodingError, DimensionError
from repro.phy.channel_est import ChannelEstimate
from repro.phy.coding.codec import Codec
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.phy.preamble import Preamble
from repro.phy.rates import MCS

__all__ = ["StreamConfig", "FrameLayout", "MimoTransmitter", "MimoReceiver", "DecodedStream"]


@dataclass
class StreamConfig:
    """One spatial stream of a frame.

    Attributes
    ----------
    bits:
        Information bits to send.
    mcs:
        Modulation and coding scheme of the stream.
    precoder:
        Pre-coding vectors: either a complex array of shape
        ``(n_tx_antennas,)`` applied on every subcarrier, or of shape
        ``(fft_size, n_tx_antennas)`` for per-subcarrier pre-coding
        (the n+ case, §4 "Multipath").
    stream_id:
        Identifier used by receivers to refer to the stream.
    """

    bits: np.ndarray
    mcs: MCS
    precoder: np.ndarray
    stream_id: int = 0

    def precoder_matrix(self, n_antennas: int, fft_size: int) -> np.ndarray:
        """Return the stacked ``(fft_size, n_antennas)`` pre-coder array.

        A flat (per-frame) pre-coder is broadcast across all subcarriers;
        the returned array may therefore be a read-only broadcast view.
        """
        precoder = np.asarray(self.precoder, dtype=complex)
        if precoder.ndim == 1:
            if precoder.size != n_antennas:
                raise DimensionError(
                    f"precoder length {precoder.size} does not match antenna count {n_antennas}"
                )
            return np.broadcast_to(precoder, (fft_size, n_antennas))
        if precoder.ndim != 2 or precoder.shape[0] != fft_size:
            raise DimensionError(
                f"precoder must have shape ({n_antennas},) or ({fft_size}, {n_antennas}), "
                f"got {precoder.shape}"
            )
        if precoder.shape[1] != n_antennas:
            raise DimensionError(
                f"precoder length {precoder.shape[1]} does not match antenna count {n_antennas}"
            )
        return precoder

    def precoder_at(self, subcarrier: int, n_antennas: int, fft_size: int) -> np.ndarray:
        """Return the pre-coding vector used on ``subcarrier``."""
        return self.precoder_matrix(n_antennas, fft_size)[subcarrier]


@dataclass
class FrameLayout:
    """Describes the structure of a transmitted frame so a receiver can
    locate the preamble and body and decode each stream.

    Attributes
    ----------
    n_streams:
        Number of spatial streams in the frame.
    n_body_symbols:
        Number of OFDM symbols in the body.
    stream_bits:
        Information bit count per stream (indexed by stream position).
    stream_mcs:
        MCS per stream.
    stream_ids:
        Stream identifiers in transmission order.
    config:
        OFDM numerology used.
    """

    n_streams: int
    n_body_symbols: int
    stream_bits: List[int]
    stream_mcs: List[MCS]
    stream_ids: List[int]
    config: OfdmConfig = field(default_factory=OfdmConfig)

    @property
    def preamble(self) -> Preamble:
        """The preamble structure (one LTF slot per stream)."""
        return Preamble(n_antennas=self.n_streams, config=self.config)

    @property
    def preamble_length(self) -> int:
        """Preamble length in samples."""
        return self.preamble.length

    @property
    def body_length(self) -> int:
        """Body length in samples."""
        return self.n_body_symbols * self.config.samples_per_symbol


@dataclass
class DecodedStream:
    """Result of decoding one stream.

    Attributes
    ----------
    stream_id:
        Identifier of the decoded stream.
    bits:
        The decoded information bits.
    evm:
        Error-vector magnitude of the equalised constellation points.
    post_snr_db:
        Estimated post-equalisation SNR in dB.
    """

    stream_id: int
    bits: np.ndarray
    evm: float
    post_snr_db: float


class MimoTransmitter:
    """Builds per-antenna sample streams for a multi-stream frame."""

    def __init__(self, n_antennas: int, config: Optional[OfdmConfig] = None):
        if n_antennas < 1:
            raise ConfigurationError("transmitter needs at least one antenna")
        self.n_antennas = n_antennas
        self.config = config or OfdmConfig()
        self._modem = OfdmModem(self.config)

    def build_frame(self, streams: Sequence[StreamConfig]) -> tuple:
        """Return ``(samples, layout)`` for the given streams.

        ``samples`` has shape ``(n_antennas, frame_length)``.  All streams
        must fit in the same number of OFDM symbols; shorter streams are
        padded by their codec.
        """
        streams = list(streams)
        if not streams:
            raise ConfigurationError("at least one stream is required")
        cfg = self.config
        codecs = [Codec(s.mcs) for s in streams]
        n_symbols = max(
            codec.n_ofdm_symbols(len(np.asarray(s.bits))) for codec, s in zip(codecs, streams)
        )

        # Encode and modulate each stream, padding to the common symbol count.
        stream_grids = []
        for stream, codec in zip(streams, codecs):
            coded = codec.encode(np.asarray(stream.bits, dtype=np.int8))
            symbols = stream.mcs.modulation.modulate(coded)
            per_symbol = cfg.n_data_subcarriers
            total_needed = n_symbols * per_symbol
            if symbols.size < total_needed:
                pad = np.zeros(total_needed - symbols.size, dtype=complex)
                symbols = np.concatenate([symbols, pad])
            grid = np.zeros((n_symbols, cfg.fft_size), dtype=complex)
            grid[:, cfg.data_index_array] = symbols.reshape(n_symbols, per_symbol)
            grid[:, cfg.pilot_index_array] = 1.0
            stream_grids.append(grid)

        # Apply per-subcarrier pre-coding and sum streams per antenna: one
        # einsum over the stacked (stream, fft, antenna) pre-coder array
        # replaces the per-subcarrier outer-product loop.
        grids = np.stack(stream_grids)  # (n_streams, n_symbols, fft_size)
        precoders = np.stack(
            [s.precoder_matrix(self.n_antennas, cfg.fft_size) for s in streams]
        )  # (n_streams, fft_size, n_antennas)
        antenna_grids = np.einsum("pka,psk->ask", precoders, grids)

        body = np.stack(
            [self._modem.modulate_grid(antenna_grids[a]) for a in range(self.n_antennas)]
        )

        # Pre-coded preamble: one LTF slot per stream, each passed through
        # that stream's pre-coding vectors.
        layout = FrameLayout(
            n_streams=len(streams),
            n_body_symbols=n_symbols,
            stream_bits=[len(np.asarray(s.bits)) for s in streams],
            stream_mcs=[s.mcs for s in streams],
            stream_ids=[s.stream_id for s in streams],
            config=cfg,
        )
        preamble_samples = self._build_precoded_preamble(streams, layout.preamble)
        samples = np.concatenate([preamble_samples, body], axis=1)
        return samples, layout

    def _build_precoded_preamble(
        self, streams: Sequence[StreamConfig], preamble: Preamble
    ) -> np.ndarray:
        """Pre-code the per-stream preamble onto the physical antennas."""
        cfg = self.config
        virtual = preamble.per_antenna_samples()  # (n_streams, length)
        out = np.zeros((self.n_antennas, preamble.length), dtype=complex)
        from repro.phy.preamble import ltf_frequency_sequence, long_training_field, short_training_field

        stf = short_training_field(cfg) / np.sqrt(len(streams))
        # STF: transmit through the first stream's average pre-coder so the
        # field keeps its periodic structure for detection and CFO.
        first_vector = streams[0].precoder_at(cfg.data_indices[0], self.n_antennas, cfg.fft_size)
        norm = np.linalg.norm(first_vector)
        if norm > 0:
            first_vector = first_vector / norm
        out[:, : len(stf)] += np.outer(first_vector, stf)

        # LTF slots: stream i's LTF, pre-coded per subcarrier.  Bins the LTF
        # does not occupy have a zero reference value, so the broadcast
        # product leaves them empty without an explicit skip.
        modem = self._modem
        reference = ltf_frequency_sequence(cfg)
        from repro.constants import NUM_LONG_TRAINING_SYMBOLS

        for position, stream in enumerate(streams):
            start, end = preamble.ltf_slot_bounds(position)
            matrix = stream.precoder_matrix(self.n_antennas, cfg.fft_size)
            precoded = reference[:, None] * matrix  # (fft_size, n_antennas)
            slots = np.broadcast_to(
                precoded, (NUM_LONG_TRAINING_SYMBOLS,) + precoded.shape
            )
            for antenna in range(self.n_antennas):
                out[antenna, start:end] = modem.modulate_grid(slots[:, :, antenna])
        return out


class MimoReceiver:
    """Decodes wanted streams given their effective channels."""

    def __init__(self, n_antennas: int, config: Optional[OfdmConfig] = None):
        if n_antennas < 1:
            raise ConfigurationError("receiver needs at least one antenna")
        self.n_antennas = n_antennas
        self.config = config or OfdmConfig()
        self._modem = OfdmModem(self.config)

    # -- decoding -------------------------------------------------------------

    def decode(
        self,
        samples: np.ndarray,
        layout: FrameLayout,
        channel_estimate: ChannelEstimate,
        wanted_streams: Optional[Sequence[int]] = None,
        frame_start: int = 0,
        noise_power: float = 1e-6,
    ) -> Dict[int, DecodedStream]:
        """Decode the wanted streams of a frame.

        Parameters
        ----------
        samples:
            Received samples, shape ``(n_rx, n_samples)``.
        layout:
            The frame layout shared by the transmitter (in the protocol it
            is conveyed by the light-weight header).
        channel_estimate:
            The per-stream effective channel: one "transmit antenna" per
            stream, the transmitter's pre-coding already folded in.
        wanted_streams:
            Stream ids to decode; defaults to all streams in the frame.
        frame_start:
            Sample index where the frame begins.
        noise_power:
            Noise power per subcarrier, for the post-equalisation SNR
            estimate.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        wanted = list(wanted_streams) if wanted_streams is not None else list(layout.stream_ids)

        cfg = layout.config
        body_start = frame_start + layout.preamble_length
        body_end = body_start + layout.body_length
        if body_end > samples.shape[1]:
            raise DecodingError("received samples end before the frame body does")
        grids = np.stack(
            [self._modem.demodulate_grid(samples[a, body_start:body_end]) for a in range(samples.shape[0])]
        )  # (n_rx, n_symbols, fft_size)

        data_idx = cfg.data_index_array
        # Batched zero forcing: one stacked pseudo-inverse over all data
        # subcarriers instead of a per-subcarrier Python loop.
        h = channel_estimate.matrices[data_idx]  # (n_data, n_rx, n_streams)
        y = grids[:, :, data_idx].transpose(2, 0, 1)  # (n_data, n_rx, n_symbols)
        h_pinv = np.linalg.pinv(h)  # (n_data, n_streams, n_rx)
        equalised = (h_pinv @ y).transpose(1, 2, 0)  # (n_streams, n_symbols, n_data)
        # Noise enhancement of the ZF equaliser per stream.
        post_noise = noise_power * np.sum(np.abs(h_pinv) ** 2, axis=2).T

        results: Dict[int, DecodedStream] = {}
        for position, stream_id in enumerate(layout.stream_ids):
            if stream_id not in wanted:
                continue
            mcs = layout.stream_mcs[position]
            n_bits = layout.stream_bits[position]
            codec = Codec(mcs)
            n_needed_symbols = codec.n_ofdm_symbols(n_bits)
            points = equalised[position, :n_needed_symbols, :].reshape(-1)
            coded_hard = mcs.modulation.demodulate_hard(points)
            bits = codec.decode(coded_hard, n_bits)
            # Link-quality metrics from the equalised constellation.
            reference = mcs.modulation.points[
                np.argmin(np.abs(points[:, None] - mcs.modulation.points[None, :]) ** 2, axis=1)
            ]
            error = points - reference
            evm = float(np.sqrt(np.mean(np.abs(error) ** 2)))
            signal = float(np.mean(np.abs(reference) ** 2))
            post_snr_db = float(10 * np.log10(max(signal, 1e-30) / max(evm**2, 1e-30)))
            results[stream_id] = DecodedStream(
                stream_id=stream_id, bits=bits, evm=evm, post_snr_db=post_snr_db
            )
        return results
