"""Wireless channel and testbed models.

This package replaces the paper's physical USRP2 testbed with a synthetic
but behaviour-preserving substitute:

* :mod:`repro.channel.models` -- complex Gaussian draws and AWGN.
* :mod:`repro.channel.multipath` -- tapped-delay-line multipath and the
  per-subcarrier frequency-selective channel it induces.
* :mod:`repro.channel.hardware` -- hardware impairments: noise floor,
  per-node carrier-frequency offsets, channel-estimation error and the
  finite nulling/alignment depth observed on real radios (§6.2).
* :mod:`repro.channel.testbed` -- a synthetic floor plan standing in for
  the testbed of Fig. 10: node placement, log-distance path loss,
  shadowing and the line-of-sight coin.  Every link's SNR is its
  shadowed budget; as in the paper's random placements, no link's SNR
  is pinned.

Links are drawn and measured only as stacks: the network construction
and the handshake experiment feed their drawn normals through
``Testbed.link_scalars_batch``, ``tap_scales``, ``taps_from_normals`` and
a batched frequency response, and every channel estimate -- one link is
a stack of one -- is ``HardwareProfile.perturb_channel_batch``.  The
one-link forms they are checked against live in ``tests/oracles/channel.py``.
"""
