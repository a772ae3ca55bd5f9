"""Software PHY layer.

This package implements the baseband signal processing needed to reproduce
the paper's USRP2/GNURadio prototype in simulation:

* :mod:`repro.phy.modulation` -- BPSK, QPSK (4-QAM), 16-QAM and 64-QAM
  constellations with Gray mapping and soft demapping.
* :mod:`repro.phy.coding` -- the 802.11 convolutional code (K=7), Viterbi
  decoding, puncturing to rates 2/3 and 3/4, the per-symbol block
  interleaver and the frame scrambler.
* :mod:`repro.phy.ofdm` -- OFDM modulation/demodulation with cyclic prefix
  and pilot subcarriers.
* :mod:`repro.phy.preamble` -- 802.11-style short/long training fields,
  per-antenna orthogonal training, and preamble cross-correlation used by
  carrier sense.
* :mod:`repro.phy.channel_est` -- per-subcarrier MIMO channel estimates.
* :mod:`repro.phy.esnr` -- effective SNR (Halperin et al.) and the
  ESNR-to-bitrate table used by n+'s per-packet bitrate selection.
* :mod:`repro.phy.rates` -- the 802.11 modulation-and-coding-scheme table.
* :mod:`repro.phy.transceiver` -- the end-to-end multi-antenna TX/RX chain.
"""
