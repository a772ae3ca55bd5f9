"""Tests for the protocol-variant framework (repro.mac.variants).

The load-bearing guarantees:

* a bare protocol name and a default-parameter :class:`ProtocolSpec` are
  the *same value* -- equal, same hash, same ``key``, same ``digest`` --
  which is what keeps every pre-framework call site and cached sweep
  grid addressable;
* parameters are typed and validated at construction, so a bad spec
  fails fast with an error naming the variant's known parameters;
* the string grammar (``name[k=v,...]``) round-trips through
  :func:`parse_protocol` and the registry listing matches the CLI's
  ``protocols`` command.
"""

import pickle

import pytest

from repro.constants import DEFAULT_ERASURE_K, DEFAULT_ERASURE_N, MAX_RETRIES
from repro.exceptions import ConfigurationError
from repro.mac.variants import (
    _VARIANTS,
    RECOVERY_MODES,
    RECOVERY_PARAMS,
    ParamSpec,
    ProtocolSpec,
    available_variants,
    parse_protocol,
    register_variant,
    resolve_protocol,
    split_protocol_list,
    variant,
)
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario

BUILTIN_NAMES = ("802.11n", "beamforming", "csma", "n+")


class TestRegistry:
    def test_builtins_are_registered(self):
        names = tuple(entry.name for entry in available_variants())
        # Subset, not equality: docs examples may register demo variants
        # in the same process.
        assert set(BUILTIN_NAMES) <= set(names)
        assert names == tuple(sorted(names))

    def test_variants_name_their_agent_class(self):
        for entry in available_variants():
            assert entry.agent_class.protocol_name == entry.name
            assert entry.params == RECOVERY_PARAMS

    def test_only_nplus_joins(self):
        joining = {e.name for e in available_variants() if e.supports_joining}
        assert joining == {"n+"}

    def test_a_joining_subclass_joins_by_the_runner_rule(self):
        """Joining is a class flag: the runner evaluates n+'s join rule for
        any registered agent class with ``supports_joining``."""

        class Relabelled(variant("n+").agent_class):
            protocol_name = "n+relabelled"

        register_variant("n+relabelled", Relabelled)
        try:
            config = SimulationConfig(duration_us=20_000.0, n_subcarriers=4)
            relabelled = run_simulation(three_pair_scenario(), "n+relabelled", 3, config)
        finally:
            _VARIANTS.pop("n+relabelled", None)
        nplus = run_simulation(three_pair_scenario(), "n+", 3, config)
        assert sum(link.joins for link in relabelled.links.values()) > 0
        assert relabelled.to_dict() == nplus.to_dict()

    def test_unknown_variant_lists_what_exists(self):
        with pytest.raises(ConfigurationError, match="registered variants"):
            variant("aloha")

    def test_duplicate_registration_rejected(self):
        entry = variant("csma")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_variant("csma", entry.agent_class)

    def test_duplicate_param_declaration_rejected(self):
        entry = variant("csma")
        with pytest.raises(ConfigurationError, match="twice"):
            register_variant(
                "csma2", entry.agent_class, params=RECOVERY_PARAMS + RECOVERY_PARAMS
            )

    def test_unknown_param_lookup_lists_known_params(self):
        with pytest.raises(ConfigurationError, match="retry_cap"):
            variant("n+").param("window")


class TestParamSpec:
    def test_int_param_rejects_bool_and_floats(self):
        spec = ParamSpec("cap", int, 7, minimum=0)
        assert spec.validate(3) == 3
        with pytest.raises(ConfigurationError, match="got bool"):
            spec.validate(True)
        with pytest.raises(ConfigurationError, match="expects int"):
            spec.validate(3.5)

    def test_float_param_accepts_ints(self):
        spec = ParamSpec("rate", float, 1.0)
        assert spec.validate(2) == 2.0
        assert isinstance(spec.validate(2), float)

    def test_minimum_and_choices_enforced(self):
        spec = ParamSpec("cap", int, 7, minimum=0)
        with pytest.raises(ConfigurationError, match=">= 0"):
            spec.validate(-1)
        mode = ParamSpec("mode", str, "none", choices=RECOVERY_MODES)
        with pytest.raises(ConfigurationError, match="must be one of"):
            mode.validate("pigeon")

    def test_parse_coerces_cli_strings(self):
        assert ParamSpec("cap", int, 7).parse("3") == 3
        assert ParamSpec("rate", float, 1.0).parse("2.5") == 2.5
        assert ParamSpec("flag", bool, False).parse("yes") is True
        with pytest.raises(ConfigurationError, match="expects int"):
            ParamSpec("cap", int, 7).parse("three")
        with pytest.raises(ConfigurationError, match="expects a boolean"):
            ParamSpec("flag", bool, False).parse("maybe")


class TestProtocolSpecCanonicalization:
    def test_default_params_are_dropped(self):
        bare = ProtocolSpec("n+")
        explicit = ProtocolSpec(
            "n+",
            {
                "recovery": "none",
                "retry_cap": MAX_RETRIES,
                "erasure_k": DEFAULT_ERASURE_K,
                "erasure_n": DEFAULT_ERASURE_N,
            },
        )
        assert bare == explicit
        assert hash(bare) == hash(explicit)
        assert bare.key == explicit.key == "n+"
        assert not explicit.overrides

    def test_overrides_make_a_distinct_value(self):
        spec = ProtocolSpec("n+", {"recovery": "erasure"})
        assert spec != ProtocolSpec("n+")
        assert spec.key == "n+[recovery=erasure]"
        assert dict(spec.overrides) == {"recovery": "erasure"}
        assert spec.resolved_params()["retry_cap"] == MAX_RETRIES

    def test_key_round_trips_through_parse(self):
        for spec in (
            ProtocolSpec("802.11n"),
            ProtocolSpec("n+", {"recovery": "erasure", "retry_cap": 3}),
            ProtocolSpec("csma", {"erasure_k": 2, "erasure_n": 4}),
        ):
            assert parse_protocol(spec.key) == spec

    def test_specs_pickle(self):
        spec = ProtocolSpec("n+", {"recovery": "fast-retransmit"})
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_validation_failures_fail_fast(self):
        with pytest.raises(ConfigurationError, match="known parameters"):
            ProtocolSpec("n+", {"window": 3})
        with pytest.raises(ConfigurationError, match="must be one of"):
            ProtocolSpec("n+", {"recovery": "pigeon"})
        with pytest.raises(ConfigurationError, match="exceeds erasure_n"):
            ProtocolSpec("n+", {"erasure_k": 9})


class TestResolveProtocol:
    def test_accepted_forms_are_interchangeable(self):
        spec = ProtocolSpec("n+", {"recovery": "erasure"})
        for form in (
            spec,
            "n+[recovery=erasure]",
            ("n+", {"recovery": "erasure"}),
            ["n+", {"recovery": "erasure"}],
            {"name": "n+", "params": {"recovery": "erasure"}},
        ):
            assert resolve_protocol(form) == spec

    def test_rejections_are_informative(self):
        with pytest.raises(ConfigurationError, match="'name' entry"):
            resolve_protocol({"params": {}})
        with pytest.raises(ConfigurationError, match="unknown entries"):
            resolve_protocol({"name": "n+", "extra": 1})
        with pytest.raises(ConfigurationError, match="must be \\(name, params\\)"):
            resolve_protocol(("n+",))
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            resolve_protocol(42)


class TestStringGrammar:
    def test_malformed_specs_rejected(self):
        for text in ("n+]", "n+[recovery=erasure", "n+[recovery]", "recovery=3"):
            with pytest.raises(ConfigurationError, match="malformed"):
                parse_protocol(text)

    def test_duplicate_params_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate parameter"):
            parse_protocol("n+[retry_cap=1,retry_cap=2]")

    def test_split_respects_brackets(self):
        assert split_protocol_list("802.11n,n+[recovery=erasure,retry_cap=3]") == (
            "802.11n",
            "n+[recovery=erasure,retry_cap=3]",
        )
        assert split_protocol_list(" csma , , n+ ") == ("csma", "n+")


class TestCliListing:
    def test_protocols_command_matches_registry(self, capsys):
        from repro.cli import main

        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for entry in available_variants():
            assert entry.name in out
            for param in entry.params:
                assert param.name in out
