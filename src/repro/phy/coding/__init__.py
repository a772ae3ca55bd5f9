"""Forward error correction used by the 802.11 OFDM PHY.

The pipeline applied to a frame's bits is::

    scramble -> convolutional encode (K=7, rate 1/2)
             -> puncture (to rate 2/3 or 3/4 if requested)
             -> interleave per OFDM symbol

and the receiver reverses each stage, with a hard-decision Viterbi
decoder undoing the convolutional code.
"""

from repro.phy.coding.scrambler import scramble, descramble
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder
from repro.phy.coding.viterbi import viterbi_decode
from repro.phy.coding.puncturing import puncture, depuncture, PUNCTURE_PATTERNS
from repro.phy.coding.interleaver import interleave, deinterleave
from repro.phy.coding.codec import Codec

__all__ = [
    "scramble",
    "descramble",
    "ConvolutionalEncoder",
    "default_encoder",
    "viterbi_decode",
    "puncture",
    "depuncture",
    "PUNCTURE_PATTERNS",
    "interleave",
    "deinterleave",
    "Codec",
]
