"""Pinned bits of both channel-draw contracts.

For two registered topologies (seed 0, 12 subcarriers) and each draw
contract, the SHA-256 of every pair's response bytes, of every pair's
SNR and of the post-build generator state are frozen here.  A change to
either contract's draw order, link budget, tap scaling or response
transform moves at least one of them; the values were recorded before
the draw code last changed, so they pin what seeded runs produce, not
what the current code happens to compute.
"""

import hashlib

import numpy as np
import pytest

from helpers import bank_pairs
from repro.sim.network import Network
from repro.sim.scenarios import scenario_factory

#: ``(scenario, contract) -> (responses, snrs, generator state)`` digests.
PINNED = {
    ("three-pair", "batched"): (
        "02e4c9f6cd6750a7eaa27e5bb0cdd58341fc0d386c4d9621ed6c7a147013606f",
        "4d214d21f82fc0ce469d126a8a531cdaca4b36993a0252f5cf862976f9116f71",
        "57bcfc7a5cfd238a76b3af435743c7ebf28faed19bc21b6502467a74a09093ed",
    ),
    ("three-pair", "grouped"): (
        "b21d933d9838d039a633b7201bb6ddbe2672da90f72155523170718e141ad063",
        "dca9421c3682bba7db2db2df4465c80454b12486ac19842a6c6faaa84837c6eb",
        "57bcfc7a5cfd238a76b3af435743c7ebf28faed19bc21b6502467a74a09093ed",
    ),
    ("dense-lan-20", "batched"): (
        "09fce6d4a36994cba082202d0c59b5291f7a45c45911b20389730c1533550638",
        "05c0e6fee71e8fe77809366a1eaf1c42387bb54a8aea8e191d869648cd5bc5af",
        "b9e6e744685ad902c8975592c1f30f3643956ced3802616b3fbd170108a3d749",
    ),
    ("dense-lan-20", "grouped"): (
        "89f70065b0d6b4971c5ed872e37d63ce020f8d9d314345a4025a8a9e9fa3a1b8",
        "44985cb0323ca44dc663a20847415139723bb268bb8dc1c88e0244d83936cd0c",
        "8a00804c44090451169206c7f5c6c4cf0eb5d6fa95c5b8d6807db7c67c272f05",
    ),
}


def draw_digests(name: str, contract: str):
    """The three digests of one network built at seed 0, 12 subcarriers.

    Pairs are read in canonical ``(a < b)`` order; each contributes its
    ids and its ``(n_sub, N_b, M_a)`` response bytes to the first
    digest and its SNR's float64 bytes to the second.  The third hashes
    the generator's ``bit_generator.state`` as its ``repr``.
    """
    scenario = scenario_factory(name)()
    rng = np.random.default_rng(0)
    network = Network(
        scenario.stations,
        scenario.pairs,
        rng,
        testbed=scenario.make_testbed(),
        n_subcarriers=12,
        channel_draws=contract,
    )
    responses, snrs = hashlib.sha256(), hashlib.sha256()
    for a, b in sorted(bank_pairs(network.channels)):
        responses.update(np.array([a, b], dtype=np.int64).tobytes())
        responses.update(np.ascontiguousarray(network.true_channel(a, b)).tobytes())
        snrs.update(np.float64(network.link_snr_db(a, b)).tobytes())
    state = hashlib.sha256(repr(rng.bit_generator.state).encode())
    return responses.hexdigest(), snrs.hexdigest(), state.hexdigest()


@pytest.mark.parametrize("name, contract", sorted(PINNED))
def test_draws_match_the_pinned_digests(name, contract):
    assert draw_digests(name, contract) == PINNED[(name, contract)]
