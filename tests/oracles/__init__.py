"""Readable reference implementations the production code is checked against.

Each module holds the slow, obviously-correct formulation of something
``src/repro`` computes in a faster way -- per-state Viterbi, per-pair
channel draws, the slot-polling round loop -- and the tests import it to
assert bit-identity.  None of it ships in the package, and every name
here is imported by at least one test (``tests/test_oracles.py``
enforces both rules).
"""
