"""Runnable reproductions of every figure in the paper's evaluation.

Each module exposes a ``run_*`` function returning a small result
dataclass, plus a ``summarize`` helper that renders the same rows/series
the paper reports:

* :mod:`repro.experiments.fig9_carrier_sense` -- carrier sense with and
  without projection (power profile and correlation CDFs, Fig. 9).
* :mod:`repro.experiments.fig11_nulling_alignment` -- residual SNR loss of
  the wanted stream after nulling and alignment (Fig. 11).
* :mod:`repro.experiments.fig12_throughput` -- throughput CDFs of n+ vs
  802.11n in the three-pair scenario (Fig. 12).
* :mod:`repro.experiments.fig13_heterogeneous` -- throughput gains in the
  heterogeneous AP/client scenario vs 802.11n and beamforming (Fig. 13).
* :mod:`repro.experiments.handshake_overhead` -- the light-weight
  handshake overhead estimate of §3.5.
* :mod:`repro.experiments.report` -- plain-text table formatting shared by
  the benchmarks and examples.
"""
