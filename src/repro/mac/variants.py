"""The protocol table: four MAC variants sharing one parameter family.

A *variant* is one row of :data:`_VARIANTS` -- an agent class and whether
it joins ongoing transmissions.  The table is closed: it holds the
paper's n+, the 802.11n and beamforming baselines it is compared with,
and the single-stream ``csma`` baseline.  A new protocol is one more row.

A :class:`ProtocolSpec` is a value of one variant: a name plus validated
overrides of the recovery family (:data:`RECOVERY_PARAMS`), which every
variant declares.  Everything that takes a protocol (``run_simulation``,
the sweep grid, the CLI, capsule replay) resolves it through
:func:`resolve_protocol`, which accepts exactly two spellings: a
``"name"`` or ``"name[k=v,...]"`` string, or a ``ProtocolSpec``.  A bare
name is *exactly* a default-parameter spec -- same agent, same
behaviour, same cache digest.

The recovery family wires the retransmission policy applied when an
attempt fails on a lossy link:

``recovery="none"``
    Binary exponential backoff and retry-capped requeue -- the historical
    behaviour.
``recovery="fast-retransmit"``
    LinkGuardian-style link-local recovery: a NACKed frame (channel loss,
    not a collision) is resent immediately with a zero backoff window
    instead of doubling the contention window.
``recovery="erasure"``
    LINC-style coding: payloads ride as ``erasure_n`` coded fragments of
    which any ``erasure_k`` reconstruct the burst, so a loss episode must
    erase more than ``erasure_n - erasure_k`` fragments to cost the
    packet; receiver-side decodes are accounted in
    ``LinkMetrics.recovered_bits``.

``retry_cap`` bounds the retransmission attempts of every policy.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.constants import (
    DEFAULT_ERASURE_K,
    DEFAULT_ERASURE_N,
    MAX_RETRIES,
)
from repro.exceptions import ConfigurationError

__all__ = [
    "ParamSpec",
    "ProtocolLike",
    "ProtocolSpec",
    "ProtocolVariant",
    "RECOVERY_MODES",
    "RECOVERY_PARAMS",
    "available_variants",
    "default_params",
    "parse_protocol",
    "resolve_protocol",
    "split_protocol_list",
    "variant",
]

#: Recovery policies every variant understands (see module docs).
RECOVERY_MODES = ("none", "fast-retransmit", "erasure")

#: What :func:`resolve_protocol` accepts: a ``"name"`` or
#: ``"name[k=v,...]"`` string, or a spec.
ProtocolLike = Union[str, "ProtocolSpec"]


@dataclass(frozen=True)
class ParamSpec:
    """One typed, validated protocol parameter.

    Attributes
    ----------
    name:
        Parameter name as it appears in specs and on the CLI.
    type:
        Expected python type, ``int`` or ``str``.  Bools are *not*
        accepted as ints (``True`` is a confusing retry cap).
    default:
        Value used when the parameter is omitted.  A spec that sets a
        parameter to its default is indistinguishable from one that
        omits it.
    choices:
        Optional closed set of allowed values.
    minimum:
        Optional inclusive lower bound for an ``int`` parameter.
    """

    name: str
    type: type
    default: Any
    description: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[int] = None

    def validate(self, value: Any) -> Any:
        """Return ``value`` if it is a valid setting, or raise."""
        if isinstance(value, bool) or not isinstance(value, self.type):
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of "
                f"{', '.join(map(repr, self.choices))}; got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"parameter {self.name!r} must be >= {self.minimum}; got {value!r}"
            )
        return value

    def parse(self, text: str) -> Any:
        """Parse a CLI string (``"3"``, ``"erasure"``...) into a value."""
        if self.type is int:
            try:
                return self.validate(int(text))
            except ValueError:
                raise ConfigurationError(
                    f"parameter {self.name!r} expects int, got {text!r}"
                ) from None
        return self.validate(text)


#: The recovery family, the parameters of every variant (see the module
#: docstring).
RECOVERY_PARAMS: Tuple[ParamSpec, ...] = (
    ParamSpec(
        "recovery",
        str,
        "none",
        description="loss-recovery policy applied on failed attempts",
        choices=RECOVERY_MODES,
    ),
    ParamSpec(
        "retry_cap",
        int,
        MAX_RETRIES,
        description="retransmission attempts before a frame is dropped",
        minimum=0,
    ),
    ParamSpec(
        "erasure_k",
        int,
        DEFAULT_ERASURE_K,
        description="data fragments needed to reconstruct an erasure-coded burst",
        minimum=1,
    ),
    ParamSpec(
        "erasure_n",
        int,
        DEFAULT_ERASURE_N,
        description="coded fragments carried per erasure-coded burst",
        minimum=1,
    ),
)

_PARAMS: Dict[str, ParamSpec] = {spec.name: spec for spec in RECOVERY_PARAMS}


def default_params() -> Dict[str, Any]:
    """``{param name: default value}`` of the recovery family."""
    return {spec.name: spec.default for spec in RECOVERY_PARAMS}


def _param(protocol: str, name: str) -> ParamSpec:
    """The family's parameter called ``name``, or raise listing them."""
    try:
        return _PARAMS[name]
    except KeyError:
        raise ConfigurationError(
            f"protocol {protocol!r} has no parameter {name!r}; "
            f"known parameters: {', '.join(_PARAMS)}"
        ) from None


@dataclass(frozen=True)
class ProtocolVariant:
    """One protocol of the table: its agent class and whether it joins.

    ``agent`` is the agent class or, for the built-ins, its
    ``"module:Class"`` path, imported on first use of :attr:`agent_class`.
    So resolving, validating and listing protocols -- all a sweep's plan
    stage, a replay of stored cells and ``repro protocols`` do -- loads no
    agent, and with it none of the round loop, MIMO or PHY.
    """

    name: str
    agent: Union[str, type]
    supports_joining: bool = False
    description: str = ""

    @property
    def agent_name(self) -> str:
        """The agent class's name, known without importing it."""
        if isinstance(self.agent, str):
            return self.agent.rpartition(":")[2]
        return self.agent.__name__

    @property
    def agent_class(self) -> type:
        """The agent class simulating this variant."""
        if isinstance(self.agent, str):
            module, _, name = self.agent.partition(":")
            return getattr(importlib.import_module(module), name)
        return self.agent


# The built-in agents sit on top of the round loop, so they are named by
# path and imported only when a simulation first asks for the class.
_VARIANTS: Dict[str, ProtocolVariant] = {
    entry.name: entry
    for entry in (
        ProtocolVariant(
            "csma",
            "repro.mac.plain_csma:CsmaMac",
            description="single-stream DCF baseline (one antenna used per attempt)",
        ),
        ProtocolVariant(
            "802.11n",
            "repro.mac.dot11n:Dot11nMac",
            description="single-user spatial multiplexing over DCF (802.11n)",
        ),
        ProtocolVariant(
            "beamforming",
            "repro.mac.beamforming:BeamformingMac",
            description="multi-user beamforming from one transmitter",
        ),
        ProtocolVariant(
            "n+",
            "repro.mac.nplus:NPlusMac",
            supports_joining=True,
            description="the paper's n+: joiners null/align into ongoing frames",
        ),
    )
}


def variant(name: str) -> ProtocolVariant:
    """Look up a variant, or raise listing the table and its parameters."""
    try:
        return _VARIANTS[name]
    except KeyError:
        defaults = ", ".join(f"{k}={v!r}" for k, v in default_params().items())
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered variants: "
            f"{', '.join(sorted(_VARIANTS))} (each takes {defaults})"
        ) from None


def available_variants() -> Tuple[ProtocolVariant, ...]:
    """Every variant of the table, sorted by name."""
    return tuple(_VARIANTS[name] for name in sorted(_VARIANTS))


@dataclass(frozen=True, init=False)
class ProtocolSpec:
    """A protocol name plus validated parameter overrides.

    Construction canonicalizes: parameters are validated against
    :data:`RECOVERY_PARAMS` and overrides equal to their default are
    dropped, so ``ProtocolSpec("n+")``, ``ProtocolSpec("n+",
    {"retry_cap": 7})`` and ``ProtocolSpec("n+", {})`` are the *same*
    value -- equal, same hash and same :attr:`key`.  A default-parameter
    spec's :attr:`key` is the bare name, so result dictionaries and
    sweep cells of a default variant are addressed by the name alone
    (``"n+"``).
    """

    name: str
    overrides: Tuple[Tuple[str, Any], ...] = field(default=())

    def __init__(self, name: str, params: Optional[Mapping[str, Any]] = None) -> None:
        variant(name)  # an unknown name fails before its parameters
        params = params or {}
        cleaned: Dict[str, Any] = {}
        for param_name in sorted(params):
            spec = _param(name, param_name)
            value = spec.validate(params[param_name])
            if value != spec.default:
                cleaned[param_name] = value
        resolved = {**default_params(), **cleaned}
        if resolved["erasure_k"] > resolved["erasure_n"]:
            raise ConfigurationError(
                f"protocol {name!r}: erasure_k={resolved['erasure_k']} "
                f"exceeds erasure_n={resolved['erasure_n']}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "overrides", tuple(sorted(cleaned.items())))

    # -- views ---------------------------------------------------------------

    def resolved_params(self) -> Dict[str, Any]:
        """Every parameter of the family with overrides applied."""
        return {**default_params(), **dict(self.overrides)}

    @property
    def key(self) -> str:
        """Canonical string form: ``name`` or ``name[k=v,...]``.

        This is both the display label and the protocol coordinate of
        sweep cache keys and result dictionaries.  It round-trips through
        :func:`parse_protocol`, and for a default-parameter spec it is
        exactly the bare name.
        """
        if not self.overrides:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.overrides)
        return f"{self.name}[{inner}]"

    @property
    def agent_class(self) -> type:
        """The agent class of this spec's variant."""
        return variant(self.name).agent_class


def parse_protocol(text: str) -> ProtocolSpec:
    """Parse ``"name"`` or ``"name[k=v,k=v]"`` into a :class:`ProtocolSpec`.

    Values are parsed with :meth:`ParamSpec.parse`, so
    ``"n+[recovery=erasure,retry_cap=3]"`` type-checks exactly like
    ``ProtocolSpec("n+", {"recovery": "erasure", "retry_cap": 3})``.
    """
    text = text.strip()
    if "[" not in text:
        if "]" in text or "=" in text:
            raise ConfigurationError(f"malformed protocol spec {text!r}")
        return ProtocolSpec(text)
    if not text.endswith("]"):
        raise ConfigurationError(f"malformed protocol spec {text!r}")
    name, _, inner = text[:-1].partition("[")
    name = name.strip()
    variant(name)  # an unknown name fails before its parameters
    params: Dict[str, Any] = {}
    for item in inner.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigurationError(
                f"malformed parameter {item!r} in protocol spec {text!r} "
                f"(expected key=value)"
            )
        key = key.strip()
        if key in params:
            raise ConfigurationError(
                f"duplicate parameter {key!r} in protocol spec {text!r}"
            )
        params[key] = _param(name, key).parse(value.strip())
    return ProtocolSpec(name, params)


def split_protocol_list(text: str) -> Tuple[str, ...]:
    """Split a comma-separated protocol list, respecting ``[...]`` params.

    ``"802.11n,n+[recovery=erasure,retry_cap=3]"`` splits into two items,
    not four.  Empty items are dropped.
    """
    items = []
    depth = 0
    current = []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    items.append("".join(current))
    return tuple(item.strip() for item in items if item.strip())


def resolve_protocol(value: ProtocolLike) -> ProtocolSpec:
    """Coerce a protocol string or :class:`ProtocolSpec` into a spec.

    A string is parsed by :func:`parse_protocol`; a spec passes through.
    Anything else raises :class:`~repro.exceptions.ConfigurationError`.
    """
    if isinstance(value, ProtocolSpec):
        return value
    if isinstance(value, str):
        return parse_protocol(value)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a protocol "
        f"(expected a 'name[k=v,...]' string or a ProtocolSpec)"
    )
