"""Network simulation tying the PHY, channel, MIMO and MAC layers together.

The simulator operates at transmission granularity: contention rounds are
resolved with the condensed DCF model (:mod:`repro.mac.csma`), concurrent
transmissions are tracked on a shared :class:`~repro.sim.medium.Medium`,
and packet reception is decided by a link abstraction that computes
per-subcarrier post-projection SNRs from the true channels, the
pre-coders actually used, and the residual interference left by imperfect
nulling/alignment.

* :mod:`repro.sim.node` -- stations (nodes with antennas and a location).
* :mod:`repro.sim.medium` -- the shared medium and the streams on the air.
* :mod:`repro.sim.traffic` -- saturated and Poisson traffic sources.
* :mod:`repro.sim.metrics` -- throughput and fairness accounting.
* :mod:`repro.sim.link_abstraction` -- post-projection SNR evaluation.
* :mod:`repro.sim.network` -- nodes + channels + hardware for one run.
* :mod:`repro.sim.scenarios` -- the registered topologies: the paper's
  Figs. 2, 3 and 4 plus the dense-LAN family.
* :mod:`repro.sim.spec` -- the run parameters resolved against a
  scenario, and the seed scheme of a sweep.
* :mod:`repro.sim.runner` -- the contention/transmission round loop.
* :mod:`repro.sim.sweep` -- parallel, cached placement x protocol sweeps.
* :mod:`repro.sim.store` -- the durable results store of a sweep.

A sweep's *plan layer* (``scenarios``, ``spec``, ``faults``,
``invariants``, ``metrics``, ``store`` and ``sweep`` itself) resolves the
grid and reads stored cells; its *run layer* (``runner`` and everything
it imports, ``fidelity``, ``supervisor``) loads only when a
cell is simulated.
"""
