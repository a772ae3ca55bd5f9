"""The protocol-variant framework: typed specs and a declarative registry.

A *variant* is a registered MAC protocol -- an agent class plus the typed
parameters it understands (:class:`ParamSpec`).  A :class:`ProtocolSpec`
is a value of one variant: a name plus validated parameter overrides.
Everything that used to take a bare protocol name (``run_simulation``,
the sweep grid, the CLI) now resolves its input through
:func:`resolve_protocol`, so a bare name, a ``(name, params)`` tuple, a
mapping and a ``ProtocolSpec`` are interchangeable and a bare name is
*exactly* a default-parameter spec -- same agent, same behaviour, same
cache digest.

Adding a variant is declarative::

    from repro.mac.variants import RECOVERY_PARAMS, register_variant

    class PatientMac(Dot11nMac):
        protocol_name = "patient"
        max_streams = 1

    register_variant(
        "patient",
        PatientMac,
        params=RECOVERY_PARAMS,
        description="single-stream 802.11n that keeps the shared knobs",
    )

and ``repro sweep --protocols "patient[retry_cap=3]"`` works, cache keys
and all.

Every built-in variant shares the *recovery family* of parameters
(:data:`RECOVERY_PARAMS`), wiring the retransmission policy applied when
an attempt fails on a lossy link:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

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
    "parse_protocol",
    "register_variant",
    "resolve_protocol",
    "split_protocol_list",
    "variant",
]

#: Recovery policies every built-in variant understands (see module docs).
RECOVERY_MODES = ("none", "fast-retransmit", "erasure")

#: Anything :func:`resolve_protocol` accepts: a bare name (or its
#: ``name[k=v,...]`` string form), a spec, a ``(name, params)`` pair or a
#: ``{"name": ..., "params": ...}`` mapping.
ProtocolLike = Union[
    str, "ProtocolSpec", Tuple[str, Mapping[str, Any]], Mapping[str, Any]
]

_BOOL_WORDS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
    "yes": True,
    "no": False,
    "on": True,
    "off": False,
}


@dataclass(frozen=True)
class ParamSpec:
    """One typed, validated protocol parameter.

    Attributes
    ----------
    name:
        Parameter name as it appears in specs and on the CLI.
    type:
        Expected python type (``int``, ``float``, ``str`` or ``bool``).
        Ints are accepted where floats are expected; bools are *not*
        accepted as ints (``True`` is a confusing retry cap).
    default:
        Value used when the parameter is omitted.  A spec that sets a
        parameter to its default is indistinguishable from one that
        omits it.
    choices:
        Optional closed set of allowed values.
    minimum:
        Optional inclusive lower bound for numeric parameters.
    """

    name: str
    type: type
    default: Any
    description: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[float] = None

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced to the parameter's type, or raise."""
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) and self.type is not bool:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.type.__name__}, got bool"
            )
        if not isinstance(value, self.type):
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
        if self.type is bool:
            try:
                return self.validate(_BOOL_WORDS[text.strip().lower()])
            except KeyError:
                raise ConfigurationError(
                    f"parameter {self.name!r} expects a boolean, got {text!r}"
                ) from None
        if self.type in (int, float):
            try:
                value = self.type(text)
            except ValueError:
                raise ConfigurationError(
                    f"parameter {self.name!r} expects {self.type.__name__}, "
                    f"got {text!r}"
                ) from None
            return self.validate(value)
        return self.validate(text)


#: The shared recovery-family parameters (see the module docstring).
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


@dataclass(frozen=True)
class ProtocolVariant:
    """A registered protocol: its agent class and parameter schema.

    ``load_agent`` returns the agent class.  A built-in variant's loader
    imports the agent's module on first call, so resolving and validating
    a protocol -- all a sweep's plan stage and a replay of stored cells
    do -- loads no agent, and with it none of the round loop, MIMO or PHY.
    """

    name: str
    load_agent: Callable[[], type]
    params: Tuple[ParamSpec, ...] = RECOVERY_PARAMS
    description: str = ""

    @property
    def agent_class(self) -> type:
        """The agent class simulating this variant."""
        return self.load_agent()

    @property
    def supports_joining(self) -> bool:
        """Whether agents of this variant join ongoing transmissions."""
        return bool(getattr(self.agent_class, "supports_joining", False))

    def param(self, name: str) -> ParamSpec:
        """The :class:`ParamSpec` called ``name``, or raise listing them."""
        for spec in self.params:
            if spec.name == name:
                return spec
        known = ", ".join(spec.name for spec in self.params) or "(none)"
        raise ConfigurationError(
            f"protocol {self.name!r} has no parameter {name!r}; "
            f"known parameters: {known}"
        )

    def defaults(self) -> Dict[str, Any]:
        """``{param name: default value}`` of every parameter."""
        return {spec.name: spec.default for spec in self.params}

    def describe_params(self) -> str:
        """Human-readable ``name=default`` summary, for listings/errors."""
        return ", ".join(f"{spec.name}={spec.default!r}" for spec in self.params)


# The built-in agents sit on top of the round loop, so each loader imports
# its agent's module only when a simulation first asks for the class.


def _csma() -> type:
    from repro.mac.plain_csma import CsmaMac

    return CsmaMac


def _dot11n() -> type:
    from repro.mac.dot11n import Dot11nMac

    return Dot11nMac


def _beamforming() -> type:
    from repro.mac.beamforming import BeamformingMac

    return BeamformingMac


def _nplus() -> type:
    from repro.mac.nplus import NPlusMac

    return NPlusMac


_VARIANTS: Dict[str, ProtocolVariant] = {
    name: ProtocolVariant(name, load_agent, description=description)
    for name, load_agent, description in (
        ("csma", _csma, "single-stream DCF baseline (one antenna used per attempt)"),
        ("802.11n", _dot11n, "single-user spatial multiplexing over DCF (802.11n)"),
        ("beamforming", _beamforming, "multi-user beamforming from one transmitter"),
        ("n+", _nplus, "the paper's n+: joiners null/align into ongoing frames"),
    )
}


def register_variant(
    name: str,
    agent_class: type,
    params: Sequence[ParamSpec] = RECOVERY_PARAMS,
    description: str = "",
    overwrite: bool = False,
) -> ProtocolVariant:
    """Register a protocol variant under ``name``.

    ``params`` defaults to the shared recovery family; pass a different
    tuple (usually ``RECOVERY_PARAMS + (...,)``) to add knobs.  Duplicate
    names raise unless ``overwrite=True`` (meant for tests).
    """
    seen = set()
    for spec in params:
        if spec.name in seen:
            raise ConfigurationError(
                f"variant {name!r} declares parameter {spec.name!r} twice"
            )
        seen.add(spec.name)
    if not overwrite and name in _VARIANTS:
        raise ConfigurationError(f"protocol variant {name!r} is already registered")
    entry = ProtocolVariant(
        name=name,
        load_agent=lambda: agent_class,
        params=tuple(params),
        description=description,
    )
    _VARIANTS[name] = entry
    return entry


def variant(name: str) -> ProtocolVariant:
    """Look up a registered variant, or raise listing what exists."""
    try:
        return _VARIANTS[name]
    except KeyError:
        listing = "; ".join(
            f"{entry.name} ({entry.describe_params()})"
            for entry in available_variants()
        )
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered variants: {listing}"
        ) from None


def available_variants() -> Tuple[ProtocolVariant, ...]:
    """All registered variants, sorted by name."""
    return tuple(_VARIANTS[name] for name in sorted(_VARIANTS))


@dataclass(frozen=True, init=False)
class ProtocolSpec:
    """A protocol name plus validated parameter overrides.

    Construction canonicalizes: parameters are validated against the
    variant's :class:`ParamSpec` schema and overrides equal to their
    default are dropped, so ``ProtocolSpec("n+")``,
    ``ProtocolSpec("n+", {"retry_cap": 7})`` and ``ProtocolSpec("n+",
    {})`` are the *same* value -- equal, same hash and same :attr:`key`.
    A default-parameter spec's :attr:`key` is the
    bare name, so result dictionaries and sweep cells of a default
    variant are addressed by the name alone (``"n+"``).
    """

    name: str
    overrides: Tuple[Tuple[str, Any], ...] = field(default=())

    def __init__(self, name: str, params: Optional[Mapping[str, Any]] = None) -> None:
        entry = variant(name)
        cleaned: Dict[str, Any] = {}
        for param_name in sorted(params or {}):
            spec = entry.param(param_name)
            value = spec.validate((params or {})[param_name])
            if value != spec.default:
                cleaned[param_name] = value
        resolved = entry.defaults()
        resolved.update(cleaned)
        if "erasure_k" in resolved and "erasure_n" in resolved:
            if resolved["erasure_k"] > resolved["erasure_n"]:
                raise ConfigurationError(
                    f"protocol {name!r}: erasure_k={resolved['erasure_k']} "
                    f"exceeds erasure_n={resolved['erasure_n']}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "overrides", tuple(sorted(cleaned.items())))

    # -- views ---------------------------------------------------------------

    def resolved_params(self) -> Dict[str, Any]:
        """Every parameter of the variant with overrides applied."""
        resolved = variant(self.name).defaults()
        resolved.update(self.overrides)
        return resolved

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
        """The registered agent class of this spec's variant."""
        return variant(self.name).agent_class


def parse_protocol(text: str) -> ProtocolSpec:
    """Parse ``"name"`` or ``"name[k=v,k=v]"`` into a :class:`ProtocolSpec`.

    Values are parsed with the variant's own :meth:`ParamSpec.parse`, so
    ``"n+[recovery=erasure,retry_cap=3]"`` type-checks exactly like the
    python form ``("n+", {"recovery": "erasure", "retry_cap": 3})``.
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
    entry = variant(name)
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
        params[key] = entry.param(key).parse(value.strip())
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


def resolve_protocol(value: Any) -> ProtocolSpec:
    """Coerce any accepted protocol form into a :class:`ProtocolSpec`.

    Accepted forms: a ``ProtocolSpec``; a string (``"n+"`` or
    ``"n+[retry_cap=3]"``); a mapping ``{"name": ..., "params": {...}}``;
    or a ``(name, params)`` pair.  Raises
    :class:`~repro.exceptions.ConfigurationError` on anything else.
    """
    if isinstance(value, ProtocolSpec):
        return value
    if isinstance(value, str):
        return parse_protocol(value)
    if isinstance(value, Mapping):
        if "name" not in value:
            raise ConfigurationError(
                f"protocol mapping needs a 'name' entry; got {dict(value)!r}"
            )
        unknown = set(value) - {"name", "params"}
        if unknown:
            raise ConfigurationError(
                f"protocol mapping has unknown entries {sorted(unknown)!r} "
                f"(expected 'name' and optional 'params')"
            )
        return ProtocolSpec(value["name"], value.get("params"))
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigurationError(
                f"protocol tuple must be (name, params); got {value!r}"
            )
        name, params = value
        return ProtocolSpec(name, params)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a protocol "
        f"(expected a name, ProtocolSpec, (name, params) or mapping)"
    )
