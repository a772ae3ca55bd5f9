"""Physical-layer and MAC-layer constants used throughout the library.

The values mirror the configuration used in the paper's USRP2 testbed
(10 MHz channels, 802.11a/g-style OFDM numerology) and the 802.11 MAC
timing parameters.  All times are expressed in microseconds unless the
name says otherwise, and all powers in dB / dBm as indicated.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# OFDM numerology (802.11a/g style, as used by the GNURadio OFDM code base)
# ---------------------------------------------------------------------------

#: Total number of OFDM subcarriers (FFT size).
NUM_SUBCARRIERS = 64

#: Number of subcarriers that carry data symbols.
NUM_DATA_SUBCARRIERS = 48

#: Cyclic-prefix length in samples (1/4 of the FFT size).
CYCLIC_PREFIX_LENGTH = 16

#: Samples per complete OFDM symbol (FFT + cyclic prefix).
SAMPLES_PER_OFDM_SYMBOL = NUM_SUBCARRIERS + CYCLIC_PREFIX_LENGTH

#: Indices (FFT bins, 0..63) of the pilot subcarriers, as in 802.11a.
PILOT_SUBCARRIER_INDICES = (11, 25, 39, 53)

#: Indices of the null subcarriers: DC plus the guard band at the edges.
NULL_SUBCARRIER_INDICES = tuple([0] + list(range(27, 38)))

#: Channel bandwidth of the paper's USRP2 testbed, in Hz.
TESTBED_BANDWIDTH_HZ = 10e6

#: OFDM symbol duration on a 10 MHz channel, in microseconds.
#: 80 samples at 10 Msps = 8 us (twice the 802.11a/20 MHz duration).
OFDM_SYMBOL_DURATION_US_10MHZ = SAMPLES_PER_OFDM_SYMBOL / (TESTBED_BANDWIDTH_HZ / 1e6)

# ---------------------------------------------------------------------------
# Preamble structure (802.11 short + long training fields)
# ---------------------------------------------------------------------------

#: Number of repetitions of the short training symbol.
NUM_SHORT_TRAINING_REPEATS = 10

#: Samples in one short training symbol (16 at 64-point numerology).
SHORT_TRAINING_SYMBOL_LENGTH = 16

#: Number of long training symbols per transmit antenna.
NUM_LONG_TRAINING_SYMBOLS = 2

# ---------------------------------------------------------------------------
# MAC timing (802.11a OFDM PHY values)
# ---------------------------------------------------------------------------

#: Short inter-frame space, microseconds.
SIFS_US = 16.0

#: Slot time, microseconds.
SLOT_TIME_US = 9.0

#: DCF inter-frame space = SIFS + 2 * slot.
DIFS_US = SIFS_US + 2 * SLOT_TIME_US

#: Minimum contention window (number of slots).
CW_MIN = 15

#: Maximum contention window (number of slots).
CW_MAX = 1023

#: Maximum number of retransmission attempts before a frame is dropped.
MAX_RETRIES = 7

#: Default dimensions of the k-of-n erasure code used by the ``erasure``
#: recovery mode (see repro.mac.variants): a coded burst is carried as
#: ``n`` fragments of which any ``k`` reconstruct the payload, so a burst
#: survives a loss episode unless more than ``n - k`` fragments are lost.
DEFAULT_ERASURE_K = 5
DEFAULT_ERASURE_N = 8

#: Default MAC payload size used throughout the paper's evaluation, bytes.
DEFAULT_PACKET_SIZE_BYTES = 1500

#: Safety margin (dB) subtracted from the measured effective SNR before a
#: bitrate is chosen.
BITRATE_MARGIN_DB = 1.0

#: The delivery model's logistic (:func:`repro.phy.esnr.packet_delivery_probability`):
#: its steepness (dB of ESNR margin per logistic unit) and how far (dB)
#: below each MCS's ``min_esnr_db`` its 50% point sits.  Hand-set; the
#: two values a calibration against the full PHY would refit.
DELIVERY_STEEPNESS_DB = 1.0
DELIVERY_THRESHOLD_OFFSET_DB = 2.5

#: A joiner needs at least this much airtime (microseconds) left in the
#: ongoing transmission to bother joining (n+ only).
MIN_JOIN_AIRTIME_US = 96.0

#: Hard cap on transmission rounds per simulation; a run that exceeds it
#: raises instead of looping forever.
MAX_ROUNDS = 200_000

#: PHY/MAC header overhead expressed in OFDM symbols (PLCP-style header).
HEADER_OFDM_SYMBOLS = 5

#: Extra OFDM symbols appended to an n+ ACK header: three symbols for the
#: differentially-encoded alignment space plus one for bitrate and CRC (§3.5).
NPLUS_ACK_HEADER_EXTRA_SYMBOLS = 4

#: Extra OFDM symbols appended to an n+ data header (§3.5).
NPLUS_DATA_HEADER_EXTRA_SYMBOLS = 1

# ---------------------------------------------------------------------------
# Interference-nulling / alignment hardware limits (§4 of the paper)
# ---------------------------------------------------------------------------

#: Maximum interference power (dB above the noise floor) that a joiner may
#: present at an ongoing receiver.  Above this, the joiner lowers its transmit
#: power before contending (§4, "Imperfections in Nulling and Alignment").
INTERFERENCE_ADMISSION_THRESHOLD_DB = 27.0

#: Average reduction in interference power achievable by nulling in practice.
NULLING_SUPPRESSION_DB = 27.0

#: Average reduction in interference power achievable by alignment in
#: practice.  Alignment is slightly less accurate because it additionally
#: relies on the receiver's estimate of its unwanted subspace (§6.2).
ALIGNMENT_SUPPRESSION_DB = 25.0

#: Thermal noise floor used by the testbed model, in dBm (10 MHz channel).
NOISE_FLOOR_DBM = -94.0

#: Maximum transmit power per node, dBm (FCC-style single-transmitter cap).
MAX_TX_POWER_DBM = 20.0
