"""Tests for the recovery-protocol family and the spec-driven runner.

Three layers of guarantees:

* **Golden snapshots** -- the seeded metrics of every built-in variant,
  captured *before* the protocol-variant refactor, still come out
  bit-identical from both a bare name and a default-parameter
  :class:`ProtocolSpec`.  This is the refactor's no-behaviour-change
  contract.
* **Recovery mechanics** -- fast-retransmit arms a zero-backoff resend
  only on channel loss (never on a collision), and erasure decoding
  accounts recovered bits without ever counting a bit as both recovered
  and dropped.
* **Sweeps over specs** -- one grid compares ``recovery`` policies on a
  faulty scenario, keyed by canonical spec strings, with bare names and
  default specs hitting the same cache cells.
"""

import numpy as np
import pytest

from helpers import make_agent
from repro.exceptions import ConfigurationError
from repro.mac.csma import CW_MIN, DcfContender, resolve_contention
from repro.mac.dot11n import Dot11nMac
from repro.mac.plain_csma import CsmaMac
from repro.mac.variants import ProtocolSpec, resolve_protocol
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.medium import Medium
from repro.sim.network import Network
from repro.sim.runner import RunSpec, SimulationConfig, run_simulation
from repro.sim.scenarios import scenario_factory, three_pair_scenario
from repro.sim.sweep import Cell, run_sweep

GOLDEN_CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)

#: ``(scenario, protocol) -> (elapsed_us, total throughput)`` captured at
#: seed 7 on the pre-refactor runner (commit a5e5a6c).  These literals
#: are the refactor's bit-identity contract: a default-parameter spec
#: must reproduce them exactly, on clean and faulty scenarios alike.
GOLDEN = {
    ("three-pair", "802.11n"): (20729.0, 9.262386029234406),
    ("three-pair", "n+"): (20828.0, 18.185519492990206),
    ("three-pair", "beamforming"): (20729.0, 9.262386029234406),
    ("three-pair", "csma"): (20241.0, 11.264265599525714),
    ("dense-lan-20-faulty", "802.11n"): (20378.0, 2.355481401511434),
    ("dense-lan-20-faulty", "n+"): (21972.0, 3.8492626979792464),
    ("dense-lan-20-faulty", "beamforming"): (20378.0, 2.355481401511434),
    ("dense-lan-20-faulty", "csma"): (22139.0, 2.1681196079317044),
}

RECOVERY_SPECS = (
    "n+",
    ProtocolSpec("n+", {"recovery": "fast-retransmit"}),
    "n+[recovery=erasure]",
)


class TestGoldenSnapshots:
    @pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
    def test_bare_name_and_default_spec_are_bit_identical(self, cell):
        scenario_name, protocol = cell
        expected = GOLDEN[cell]
        bare = run_simulation(
            scenario_factory(scenario_name)(), protocol, seed=7, config=GOLDEN_CONFIG
        )
        assert (bare.elapsed_us, bare.total_throughput_mbps()) == expected
        spec = run_simulation(
            scenario_factory(scenario_name)(),
            ProtocolSpec(protocol),
            seed=7,
            config=GOLDEN_CONFIG,
        )
        assert spec.to_dict() == bare.to_dict()

    def test_default_recovery_draws_no_erasure_coins(self):
        """recovery="none" must not touch the erasure path at all: the
        faulty golden above already pins the exact metrics, and the
        recovered counter stays at its serialised default."""
        metrics = run_simulation(
            scenario_factory("dense-lan-20-faulty")(),
            "802.11n",
            seed=7,
            config=GOLDEN_CONFIG,
        )
        assert all(link.recovered_bits == 0 for link in metrics.links.values())


class TestCsmaVariant:
    def test_csma_caps_streams_at_one(self, rng):
        scenario = three_pair_scenario()
        network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)
        agent = make_agent(
            CsmaMac, scenario.pairs[2], network, np.random.default_rng(1)
        )
        agent.refill(0.0)
        streams = agent.plan_initial(100.0, Medium())
        assert len(streams) == 1

    def test_dot11n_remains_uncapped(self, rng):
        scenario = three_pair_scenario()
        network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)
        agent = make_agent(
            Dot11nMac, scenario.pairs[2], network, np.random.default_rng(1)
        )
        agent.refill(0.0)
        assert len(agent.plan_initial(100.0, Medium())) == 3


class TestFastRetransmitContender:
    def test_armed_contender_draws_zero_backoff(self):
        contender = DcfContender(node_id=0)
        contender.record_collision()
        window = contender._cw
        contender.arm_fast_retransmit()
        assert contender.backoff_window == 0
        assert contender._cw == window  # cw untouched
        assert resolve_contention([contender], np.random.default_rng(0)).backoff_slots == 0

    def test_success_and_collision_consume_the_pass(self):
        contender = DcfContender(node_id=0)
        contender.arm_fast_retransmit()
        contender.record_success()
        assert contender.backoff_window == CW_MIN
        contender.arm_fast_retransmit()
        contender.record_collision()
        assert contender.backoff_window == contender._cw > CW_MIN

    def _agent(self, spec):
        scenario = three_pair_scenario()
        network = Network(
            scenario.stations, scenario.pairs, np.random.default_rng(3), n_subcarriers=8
        )
        agent = make_agent(
            Dot11nMac, scenario.pairs[0], network, np.random.default_rng(1), spec=spec
        )
        agent.refill(0.0)
        return agent

    def test_channel_loss_arms_only_under_fast_retransmit(self):
        receiver = three_pair_scenario().pairs[0].receivers[0].node_id
        fast = self._agent(ProtocolSpec("802.11n", {"recovery": "fast-retransmit"}))
        fast.record_outcome(receiver, 1000, delivered=False, collided=False)
        assert fast.contender.backoff_window == 0

        plain = self._agent(ProtocolSpec("802.11n"))
        plain.record_outcome(receiver, 1000, delivered=False, collided=False)
        assert plain.contender.backoff_window > CW_MIN

    def test_collisions_always_back_off(self):
        receiver = three_pair_scenario().pairs[0].receivers[0].node_id
        agent = self._agent(ProtocolSpec("802.11n", {"recovery": "fast-retransmit"}))
        agent.record_outcome(receiver, 1000, delivered=False, collided=True)
        assert agent.contender.backoff_window > CW_MIN

    def test_retry_cap_override_reaches_the_queues(self):
        agent = self._agent(ProtocolSpec("802.11n", {"retry_cap": 2}))
        assert all(q.max_retries == 2 for q in agent.queues.values())


class TestErasureDraws:
    def test_draw_counts_erased_fragments(self):
        injector = FaultInjector(FaultSchedule(), None, seed=0)
        assert injector.draw_erasure(0.0, 8) == 0
        assert injector.draw_erasure(1.0, 8) == 8
        assert injector.losses_drawn == 2

    def test_draws_are_seed_deterministic(self):
        first = FaultInjector(FaultSchedule(), None, seed=3)
        second = FaultInjector(FaultSchedule(), None, seed=3)
        draws = [first.draw_erasure(0.4, 8) for _ in range(20)]
        assert draws == [second.draw_erasure(0.4, 8) for _ in range(20)]
        assert any(0 < d < 8 for d in draws)


class TestErasureRecovery:
    CONFIG = SimulationConfig(duration_us=100_000.0, n_subcarriers=8)

    def test_erasure_recovers_bits_on_a_faulty_scenario(self):
        results = run_sweep(
            "dense-lan-20-faulty",
            ["n+", "n+[recovery=erasure]"],
            n_runs=1,
            config=self.CONFIG,
        ).results
        plain = results["n+"][0]
        coded = results["n+[recovery=erasure]"][0]
        assert all(link.recovered_bits == 0 for link in plain.links.values())
        recovered = sum(link.recovered_bits for link in coded.links.values())
        assert recovered > 0
        # No bit is both recovered and dropped: recovered bits are a
        # share of *decoded* (delivered) frames only.
        for link in coded.links.values():
            assert 0 <= link.recovered_bits <= link.delivered_bits

    def test_recovered_bits_survive_serialisation(self):
        metrics = run_simulation(
            scenario_factory("dense-lan-20-faulty")(),
            "n+[recovery=erasure]",
            seed=1000,  # placement_seed(0, 0) + mac offset irrelevant here
            config=self.CONFIG,
        )
        payload = metrics.to_dict()
        clone = type(metrics).from_dict(payload)
        assert clone.to_dict() == payload
        assert any("recovered_bits" in link for link in payload["links"].values())


class TestRecoverySweep:
    CONFIG = SimulationConfig(duration_us=30_000.0, n_subcarriers=8)

    def test_sweep_compares_recovery_policies(self):
        sweep = run_sweep(
            "dense-lan-20-faulty",
            RECOVERY_SPECS,
            n_runs=2,
            seed=0,
            config=self.CONFIG,
        )
        assert set(sweep.results) == {
            "n+",
            "n+[recovery=fast-retransmit]",
            "n+[recovery=erasure]",
        }
        for key, runs in sweep.results.items():
            assert len(runs) == 2
            for metrics in runs:
                for link in metrics.links.values():
                    assert 0 <= link.recovered_bits <= link.delivered_bits
                    assert link.packets_dropped >= 0
                    if key != "n+[recovery=erasure]":
                        assert link.recovered_bits == 0
        # totals are addressable by grid key and by a spec
        assert sweep.totals_mbps("n+[recovery=erasure]") == sweep.totals_mbps(
            ProtocolSpec("n+", {"recovery": "erasure"})
        )

    def test_bare_name_and_default_spec_share_cache_cells(self, tmp_path):
        config = SimulationConfig(duration_us=8_000.0, n_subcarriers=8)
        first = run_sweep(
            "three-pair", ["n+"], n_runs=1, config=config, cache_dir=tmp_path
        )
        assert first.cache_misses == 1
        second = run_sweep(
            "three-pair",
            [ProtocolSpec("n+", {"retry_cap": 7})],
            n_runs=1,
            config=config,
            cache_dir=tmp_path,
        )
        assert second.cache_hits == 1 and second.cache_misses == 0
        run_spec = RunSpec.resolve(three_pair_scenario(), config)

        def key(protocol):
            spec = resolve_protocol(protocol)
            return Cell("three-pair", None, spec, 0, 0, run_spec).key

        assert key("n+") == key(ProtocolSpec("n+"))
        assert key("n+") != key("n+[recovery=erasure]")

    def test_invalid_specs_fail_before_any_simulation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="registered variants"):
            run_sweep("three-pair", ["aloha"], n_runs=1, config=self.CONFIG)
        with pytest.raises(ConfigurationError, match="known parameters"):
            run_sweep(
                "three-pair", ["n+[window=3]"], n_runs=1, config=self.CONFIG
            )
        with pytest.raises(ConfigurationError, match="duplicate protocol"):
            run_sweep(
                "three-pair",
                ["n+", ProtocolSpec("n+", {"retry_cap": 7})],
                n_runs=1,
                config=self.CONFIG,
            )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_rejects_a_name_and_its_default_spec(self):
        with pytest.raises(ConfigurationError, match="duplicate protocol"):
            run_sweep(
                "three-pair",
                ["csma", ProtocolSpec("csma", {})],
                n_runs=1,
                config=self.CONFIG,
            )
