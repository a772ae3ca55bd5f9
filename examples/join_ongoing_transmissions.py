#!/usr/bin/env python
"""Walk through the four contention outcomes of Fig. 5.

The three-pair topology of Fig. 3 (1-, 2- and 3-antenna pairs) can resolve
its contention in four qualitatively different ways, shown in Fig. 5(a)-(d)
of the paper.  This example drives the MAC agents by hand through each of
them and prints, for every transmission: how many streams it uses, which
ongoing receivers it protects (and whether by nulling or alignment), the
bitrate its receiver selects, and the resulting post-projection SNR.

Run it with::

    python examples/join_ongoing_transmissions.py
"""

from __future__ import annotations

import numpy as np

from repro.mac.plan import PlanCache
from repro.mac.variants import resolve_protocol
from repro.phy.esnr import esnr_db
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim.medium import Medium
from repro.sim.network import Network
from repro.sim.scenarios import three_pair_scenario


def describe_streams(network, medium, label):
    print(f"\n--- {label} ---")
    streams = medium.active_streams
    by_transmitter = {}
    for stream in streams:
        by_transmitter.setdefault(stream.transmitter_id, []).append(stream)
    for transmitter_id, group in by_transmitter.items():
        name = network.station(transmitter_id).name
        receiver = network.station(group[0].receiver_id).name
        protections = []
        for receiver_id, strategy in group[0].protected_receivers.items():
            protections.append(f"{network.station(receiver_id).name} ({strategy.value})")
        protects = ", ".join(protections) if protections else "nobody (first winner)"
        snrs = receiver_stream_snrs(network, group[0].receiver_id, group, streams)
        mean_snr = np.mean([np.mean(s) for s in snrs.values()])
        esnr = esnr_db(np.concatenate(list(snrs.values())))
        print(
            f"  {name} -> {receiver}: {len(group)} stream(s), MCS {group[0].mcs.index}, "
            f"protects {protects}"
        )
        print(
            f"      post-projection SNR {mean_snr:5.1f} dB, effective SNR {esnr:5.1f} dB, "
            f"payload {sum(s.payload_bits for s in group)} bits"
        )


def build_agents(network, rng):
    NPlus = resolve_protocol("n+").agent_class
    plan_cache = PlanCache()  # one per simulation, shared by its agents
    agents = {}
    for pair in network.pairs:
        agent = NPlus(pair, network, rng, arrival_seed=(0,), plan_cache=plan_cache)
        agent.refill(0.0)
        agents[pair.transmitter.node_id] = agent
    return agents


def scenario_a(network, agents):
    """Fig. 5(a): tx3 wins and uses all three degrees of freedom."""
    medium = Medium()
    medium.add_streams(agents[4].plan_initial(100.0, medium))
    assert medium.used_degrees_of_freedom == 3, "tx3 alone should use all three DoF"
    describe_streams(network, medium, "Fig. 5(a): tx3-rx3 wins alone, three streams")


def scenario_b(network, agents):
    """Fig. 5(b): tx2 wins with two streams; tx3 joins with one."""
    medium = Medium()
    medium.add_streams(agents[2].plan_initial(100.0, medium))
    join = agents[4].plan_join(400.0, medium)
    if join:
        medium.add_streams(join)
    describe_streams(network, medium, "Fig. 5(b): tx2-rx2 wins, tx3 joins the third DoF")


def scenario_c(network, agents):
    """Fig. 5(c): tx1 wins; tx3 joins with two streams."""
    medium = Medium()
    medium.add_streams(agents[0].plan_initial(100.0, medium))
    join = agents[4].plan_join(400.0, medium)
    if join:
        medium.add_streams(join)
    describe_streams(network, medium, "Fig. 5(c): tx1-rx1 wins, tx3 adds two streams")


def scenario_d(network, agents):
    """Fig. 5(d): tx1, then tx2, then tx3 -- one stream each."""
    medium = Medium()
    medium.add_streams(agents[0].plan_initial(100.0, medium))
    join2 = agents[2].plan_join(400.0, medium)
    if join2:
        medium.add_streams(join2)
    join3 = agents[4].plan_join(700.0, medium)
    if join3:
        medium.add_streams(join3)
    assert medium.used_degrees_of_freedom >= 1, "at least the first winner is on the air"
    describe_streams(network, medium, "Fig. 5(d): all three links share the medium")


def main() -> None:
    rng = np.random.default_rng(11)
    scenario = three_pair_scenario()
    network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=16)
    print("Channel realisation:")
    print(network.describe())
    agents = build_agents(network, rng)
    scenario_a(network, agents)
    scenario_b(network, agents)
    scenario_c(network, agents)
    scenario_d(network, agents)


if __name__ == "__main__":
    main()
