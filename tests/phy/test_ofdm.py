"""Tests for the OFDM modulator/demodulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_channel
from repro.constants import CYCLIC_PREFIX_LENGTH, NUM_DATA_SUBCARRIERS, NUM_SUBCARRIERS
from repro.exceptions import DimensionError
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.utils.bits import random_bits


class TestOfdmConfig:
    def test_default_numerology(self):
        config = OfdmConfig()
        assert config.fft_size == NUM_SUBCARRIERS
        assert config.cp_length == CYCLIC_PREFIX_LENGTH
        assert config.n_data_subcarriers == NUM_DATA_SUBCARRIERS
        assert config.samples_per_symbol == 80

    def test_data_pilot_null_partition(self):
        config = OfdmConfig()
        data = set(config.data_indices)
        pilots = set(config.pilot_indices)
        nulls = set(config.null_indices)
        assert data.isdisjoint(pilots)
        assert data.isdisjoint(nulls)
        assert pilots.isdisjoint(nulls)
        assert len(data) + len(pilots) + len(nulls) == config.fft_size


class TestRoundtrip:
    def test_grid_roundtrip(self, rng):
        modem = OfdmModem()
        grid = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        samples = modem.modulate_grid(grid)
        assert samples.size == 5 * 80
        recovered = modem.demodulate_grid(samples)
        assert np.allclose(recovered, grid, atol=1e-10)

    def test_data_symbol_roundtrip(self, rng):
        modem = OfdmModem()
        modulation = get_modulation("16qam")
        bits = random_bits(4 * NUM_DATA_SUBCARRIERS * 3, rng)
        symbols = modulation.modulate(bits)
        data_index = modem.config.data_index_array
        sent = np.zeros((symbols.size // data_index.size, 64), dtype=complex)
        sent[:, data_index] = symbols.reshape(-1, data_index.size)
        grid = modem.demodulate_grid(modem.modulate_grid(sent))
        recovered = grid[:, modem.config.data_index_array].reshape(-1)
        assert np.allclose(recovered, symbols, atol=1e-10)

    def test_cyclic_prefix_is_a_copy_of_the_tail(self, rng):
        modem = OfdmModem()
        grid = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        samples = modem.modulate_grid(grid)
        assert np.allclose(samples[:16], samples[64:80], atol=1e-12)

    def test_power_is_preserved(self, rng):
        """The unitary-scaled IFFT keeps the average sample power equal to
        the average subcarrier power."""
        modem = OfdmModem()
        grid = rng.standard_normal((20, 64)) + 1j * rng.standard_normal((20, 64))
        samples = modem.modulate_grid(grid)
        body = samples.reshape(20, 80)[:, 16:]
        assert np.mean(np.abs(body) ** 2) == pytest.approx(np.mean(np.abs(grid) ** 2), rel=1e-6)

    def test_wrong_sample_count_raises(self, rng):
        modem = OfdmModem()
        with pytest.raises(DimensionError):
            modem.demodulate_grid(np.zeros(81, dtype=complex))

    def test_wrong_grid_width_raises(self, rng):
        modem = OfdmModem()
        with pytest.raises(DimensionError):
            modem.modulate_grid(np.zeros((1, 47), dtype=complex))

    @given(n_symbols=st.integers(1, 6), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n_symbols, seed):
        rng = np.random.default_rng(seed)
        modem = OfdmModem()
        grid = rng.standard_normal((n_symbols, 64)) + 1j * rng.standard_normal((n_symbols, 64))
        assert np.allclose(modem.demodulate_grid(modem.modulate_grid(grid)), grid, atol=1e-9)


class TestMultipathTolerance:
    def test_cp_absorbs_short_multipath(self, rng):
        """A channel shorter than the CP must look like a per-subcarrier
        complex gain (no inter-symbol interference)."""
        from repro.channel.multipath import MultipathChannel

        modem = OfdmModem()
        grid = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        samples = modem.modulate_grid(grid)
        channel = MultipathChannel.random(1, 1, rng, n_taps=8)
        received = apply_channel(channel, samples.reshape(1, -1))[0]
        recovered = modem.demodulate_grid(received)
        response = channel.frequency_response(64)[:, 0, 0]
        # Skip the first symbol (transient of the convolution).
        expected = grid[1:] * response[None, :]
        assert np.allclose(recovered[1:], expected, atol=1e-6)
