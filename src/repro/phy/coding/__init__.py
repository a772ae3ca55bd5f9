"""Forward error correction used by the 802.11 OFDM PHY.

The pipeline applied to a frame's bits is::

    scramble -> convolutional encode (K=7, rate 1/2)
             -> puncture (to rate 2/3 or 3/4 if requested)
             -> interleave per OFDM symbol

and the receiver reverses each stage, with a hard-decision Viterbi
decoder undoing the convolutional code.
"""
