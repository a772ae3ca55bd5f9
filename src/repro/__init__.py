"""802.11n+ -- a reproduction of "Random Access Heterogeneous MIMO Networks".

The library is organised in layers:

* :mod:`repro.utils` -- linear algebra, dB and bit helpers.
* :mod:`repro.phy` -- a software 802.11-style OFDM PHY (modulation,
  coding, preambles, channel estimation, effective SNR).
* :mod:`repro.channel` -- channel and synthetic-testbed models replacing
  the paper's USRP2 deployment.
* :mod:`repro.mimo` -- the core contribution: interference nulling,
  interference alignment, the general pre-coding solver and
  multi-dimensional carrier sense.
* :mod:`repro.mac` -- the n+ random-access MAC, plus the 802.11n and
  multi-user-beamforming baselines it is compared against.
* :mod:`repro.sim` -- a discrete-event network simulator tying the layers
  together.
* :mod:`repro.experiments` -- runnable reproductions of every figure in
  the paper's evaluation (Figs. 9 and 11-13).

No package ``__init__`` imports its submodules: import a name from the
module that defines it (``repro.sim.sweep.run_sweep``, not
``repro.sim.run_sweep``), so a command loads only the modules it runs --
a replay of stored sweep cells never loads the round loop, the MAC
agents, MIMO or the PHY.

Quickstart::

    import numpy as np
    from repro.mimo.precoder import compute_precoders_batch

    rng = np.random.default_rng(0)
    # A 2-antenna transmitter joining a single-antenna pair: null at rx1.
    # The kernels take a stack of matrices (one per subcarrier); one
    # matrix is a one-element stack.
    h_to_rx1 = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    precoders = compute_precoders_batch(2, h_to_rx1[None], n_streams=1)[0]
    assert np.allclose(h_to_rx1 @ precoders[0], 0)
"""

__version__ = "1.0.0"
