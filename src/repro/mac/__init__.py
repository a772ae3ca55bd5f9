"""Medium-access control: the n+ protocol and its baselines.

* :mod:`repro.mac.frames` -- the packets traffic sources queue.
* :mod:`repro.mac.handshake` -- the light-weight RTS/CTS handshake (§3.5):
  overhead accounting and differential encoding of the alignment space.
* :mod:`repro.mac.bitrate` -- per-packet ESNR-based bitrate selection
  (§3.4) plus a historical-rate controller used as an ablation baseline.
* :mod:`repro.mac.power_control` -- the L-threshold admission/power rule
  (§4, "Imperfections in Nulling and Alignment").
* :mod:`repro.mac.aggregation` -- airtime/payload-bit conversions that
  size a joiner's burst to end with the first contention winner (§3.1).
* :mod:`repro.mac.plan` -- the join policy: turning overheard headers and
  reciprocity channels into pre-coders, power scaling and a bitrate.
* :mod:`repro.mac.csma` -- DCF-style contention (DIFS, backoff, collisions).
* :mod:`repro.mac.retransmission` -- the retry queue.
* :mod:`repro.mac.dot11n` / :mod:`repro.mac.nplus` /
  :mod:`repro.mac.beamforming` -- the three protocol agents used in the
  evaluation; they sit on top of the simulator, so
  :mod:`repro.mac.variants` names them and imports one only when a
  simulation asks for its class.
* :mod:`repro.mac.variants` -- the protocol table and its parameter family.
"""
