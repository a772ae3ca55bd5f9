"""Tests for the protocol table (repro.mac.variants).

The load-bearing guarantees:

* a bare protocol name and a default-parameter :class:`ProtocolSpec` are
  the *same value* -- equal, same hash, same ``key``, same ``digest`` --
  which is what keeps every pre-framework call site and cached sweep
  grid addressable;
* parameters are typed and validated at construction, so a bad spec
  fails fast with an error naming the family's known parameters;
* the string grammar (``name[k=v,...]``) round-trips through
  :func:`parse_protocol`, a string and a spec are the only accepted
  spellings, and the table matches the CLI's ``protocols`` command;
* spec keys and the sweep cell keys built on them are pinned literals.
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
    ProtocolVariant,
    available_variants,
    parse_protocol,
    resolve_protocol,
    split_protocol_list,
    variant,
)
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario
from repro.sim.spec import RunSpec
from repro.sim.sweep import CACHE_SCHEMA_VERSION, Cell, scenario_digest

BUILTIN_NAMES = ("802.11n", "beamforming", "csma", "n+")


class TestTable:
    def test_the_table_holds_the_four_builtins(self):
        names = tuple(entry.name for entry in available_variants())
        assert names == BUILTIN_NAMES

    def test_variants_name_their_agent_class(self):
        for entry in available_variants():
            assert entry.agent_class.protocol_name == entry.name

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_declarations_match_their_agent_classes(self, name):
        """A built-in names its agent by path and declares whether it
        joins; both must agree with the class the path loads."""
        entry = variant(name)
        module, _, class_name = entry.agent.partition(":")
        agent = entry.agent_class
        assert (agent.__module__, agent.__name__) == (module, class_name)
        assert entry.agent_name == agent.__name__
        assert entry.supports_joining is bool(agent.supports_joining)

    def test_only_nplus_joins(self):
        joining = {e.name for e in available_variants() if e.supports_joining}
        assert joining == {"n+"}

    def test_a_joining_subclass_joins_by_the_runner_rule(self, monkeypatch):
        """Joining is a class flag: the runner evaluates n+'s join rule for
        any agent class in the table with ``supports_joining``."""

        class Relabelled(variant("n+").agent_class):
            protocol_name = "n+relabelled"

        monkeypatch.setitem(
            _VARIANTS,
            "n+relabelled",
            ProtocolVariant("n+relabelled", Relabelled, supports_joining=True),
        )
        config = SimulationConfig(duration_us=20_000.0, n_subcarriers=4)
        relabelled = run_simulation(three_pair_scenario(), "n+relabelled", 3, config)
        nplus = run_simulation(three_pair_scenario(), "n+", 3, config)
        assert sum(link.joins for link in relabelled.links.values()) > 0
        assert relabelled.to_dict() == nplus.to_dict()

    def test_unknown_variant_lists_what_exists(self):
        with pytest.raises(ConfigurationError, match="registered variants") as info:
            variant("aloha")
        message = str(info.value)
        for name in BUILTIN_NAMES:
            assert name in message
        # The shared parameter family is stated once, not per variant.
        assert message.count("retry_cap=7") == 1

    def test_unknown_param_lookup_lists_known_params(self):
        with pytest.raises(ConfigurationError, match="retry_cap"):
            parse_protocol("n+[window=3]")


class TestParamSpec:
    def test_int_param_rejects_bool_and_floats(self):
        spec = ParamSpec("cap", int, 7, minimum=0)
        assert spec.validate(3) == 3
        with pytest.raises(ConfigurationError, match="got bool"):
            spec.validate(True)
        with pytest.raises(ConfigurationError, match="expects int"):
            spec.validate(3.5)

    def test_minimum_and_choices_enforced(self):
        spec = ParamSpec("cap", int, 7, minimum=0)
        with pytest.raises(ConfigurationError, match=">= 0"):
            spec.validate(-1)
        mode = ParamSpec("mode", str, "none", choices=RECOVERY_MODES)
        with pytest.raises(ConfigurationError, match="must be one of"):
            mode.validate("pigeon")

    def test_parse_coerces_cli_strings(self):
        assert ParamSpec("cap", int, 7).parse("3") == 3
        assert ParamSpec("mode", str, "none").parse("erasure") == "erasure"
        for text in ("three", "2.5"):
            with pytest.raises(ConfigurationError, match="expects int"):
                ParamSpec("cap", int, 7).parse(text)

    def test_the_family_is_one_str_and_three_ints(self):
        assert [(p.name, p.type) for p in RECOVERY_PARAMS] == [
            ("recovery", str),
            ("retry_cap", int),
            ("erasure_k", int),
            ("erasure_n", int),
        ]


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
    def test_a_string_and_a_spec_are_interchangeable(self):
        spec = ProtocolSpec("n+", {"recovery": "erasure"})
        assert resolve_protocol(spec) is spec
        assert resolve_protocol("n+[recovery=erasure]") == spec

    @pytest.mark.parametrize(
        "form",
        [
            ("n+", {"recovery": "erasure"}),
            ["n+", {"recovery": "erasure"}],
            {"name": "n+", "params": {"recovery": "erasure"}},
            42,
        ],
        ids=["tuple", "list", "mapping", "int"],
    )
    def test_any_other_form_is_refused(self, form):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            resolve_protocol(form)


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
    def test_protocols_command_matches_the_table(self, capsys):
        from repro.cli import main

        assert main(["protocols"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for entry in available_variants():
            assert any(line.startswith(entry.name + " ") for line in lines)
        # The family is listed once, one row per parameter.
        for param in RECOVERY_PARAMS:
            assert sum(line.startswith(param.name + " ") for line in lines) == 1


class TestPinnedKeys:
    """Spec keys and the cell keys built on them, as recorded before the
    table was closed; a change here re-keys every cached sweep."""

    CELL_KEYS = {
        "n+": "333e6e7747564789f42c573c2a55663903033442fc6bc0fdeff1d359a9fef59b",
        "n+[recovery=erasure]": (
            "0d32861a6ccd1bbdf1879b1c72a6ea37bc1727b1619798c615c2d60a52c89ec4"
        ),
        "csma[retry_cap=3]": (
            "b227373147a1a770ee10a6da21f88ede37f12e6f35e65d20bd6f3b20aef18ae4"
        ),
    }

    def test_spec_and_cell_keys_are_unchanged(self):
        assert CACHE_SCHEMA_VERSION == 8
        scenario = three_pair_scenario()
        run_spec = RunSpec.resolve(
            scenario, SimulationConfig(duration_us=8_000.0, n_subcarriers=8)
        )
        fingerprint = scenario_digest(scenario)
        for text, cell_key in self.CELL_KEYS.items():
            spec = resolve_protocol(text)
            assert spec.key == text
            cell = Cell("three-pair", fingerprint, spec, 0, 0, run_spec)
            assert cell.key == cell_key
