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
  evaluation (loaded lazily because they sit on top of the simulator).
"""

from repro.mac.aggregation import airtime_for_bits, bits_in_airtime
from repro.mac.bitrate import HistoricalRateController, choose_bitrate
from repro.mac.csma import ContentionRound, DcfContender, resolve_contention
from repro.mac.frames import Packet
from repro.mac.handshake import HandshakeOverhead, handshake_overhead
from repro.mac.plan import (
    PlannedReceiver,
    ProtectedReceiver,
    StreamPlan,
    TransmissionPlan,
    plan_initial_transmission,
    plan_join,
)
from repro.mac.power_control import admission_power_scale, interference_power_db
from repro.mac.retransmission import RetransmissionQueue

__all__ = [
    "Packet",
    "choose_bitrate",
    "HistoricalRateController",
    "admission_power_scale",
    "interference_power_db",
    "bits_in_airtime",
    "airtime_for_bits",
    "handshake_overhead",
    "HandshakeOverhead",
    "TransmissionPlan",
    "StreamPlan",
    "ProtectedReceiver",
    "PlannedReceiver",
    "plan_initial_transmission",
    "plan_join",
    "DcfContender",
    "ContentionRound",
    "resolve_contention",
    "RetransmissionQueue",
    "BaseMacAgent",
    "Dot11nMac",
    "NPlusMac",
    "BeamformingMac",
]

#: Agent classes are imported lazily (PEP 562) because they depend on the
#: simulation package, which in turn uses the lightweight MAC modules.
_LAZY_AGENTS = {
    "BaseMacAgent": ("repro.mac.agent", "BaseMacAgent"),
    "Dot11nMac": ("repro.mac.dot11n", "Dot11nMac"),
    "NPlusMac": ("repro.mac.nplus", "NPlusMac"),
    "BeamformingMac": ("repro.mac.beamforming", "BeamformingMac"),
}


def __getattr__(name: str):
    if name in _LAZY_AGENTS:
        import importlib

        module_name, attribute = _LAZY_AGENTS[name]
        module = importlib.import_module(module_name)
        value = getattr(module, attribute)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
