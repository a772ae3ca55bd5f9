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
  shadowing, and per-link MIMO channel generation.
"""

from repro.channel.models import awgn, complex_gaussian
from repro.channel.multipath import MultipathChannel, exponential_power_delay_profile
from repro.channel.hardware import HardwareProfile
from repro.channel.testbed import Testbed, TestbedLink, default_testbed

__all__ = [
    "awgn",
    "complex_gaussian",
    "MultipathChannel",
    "exponential_power_delay_profile",
    "HardwareProfile",
    "Testbed",
    "TestbedLink",
    "default_testbed",
]
