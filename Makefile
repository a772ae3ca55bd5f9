# Convenience targets; everything also works as the plain commands in
# the README (the docs-check target verifies exactly that).

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-fast docs-check examples bench bench-compare bench-quick bench-baseline precommit invariant-smoke

test:
	$(PYTHON) -m pytest -q

# Deselects @pytest.mark.slow (the full-PHY-heavy deep sweeps); the
# full `make test` still runs everything.
test-fast:
	$(PYTHON) -m pytest -q -m "not slow"

# The documented pre-commit gate: the fast test selection, the
# CI-affordable benchmark comparison, and the invariant smoke.
precommit: test-fast bench-quick invariant-smoke

# Fast end-to-end invariant pass: runs a bursty and a faulty scenario
# under validation="cheap", so a broken conservation law fails the gate
# even if no unit test covers it.  The 500-station run is the one that
# builds its network under the grouped draw contract; the fidelity-full
# run sends every reception through the full-PHY probe (encode, fade,
# equalise, Viterbi decode).  The three-protocol faulty run sends every
# protocol's receptions through the network's zero-forcing memo across
# fade epochs.
invariant-smoke:
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-bursty --protocols n+ --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-bursty --protocols n+ --runs 1 --duration-ms 20 --validation cheap --fidelity full
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-faulty --protocols n+ --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-50-faulty --protocols "802.11n,n+,n+[recovery=erasure]" --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-500-bursty --protocols n+ --runs 1 --duration-ms 5 --validation cheap

# Fails when README/ARCHITECTURE code blocks or the examples go stale.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docs.py tests/test_examples_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# One-command regression gate: fails when any tracked benchmark regresses
# >25% against the committed BENCH_core.json baseline.
bench: bench-compare

bench-compare:
	$(PYTHON) benchmarks/run_all.py --compare

# The CI-affordable gate: skips the 500-station tier and the kept
# reference implementations (each has a faster tracked sibling).
bench-quick:
	$(PYTHON) benchmarks/run_all.py --compare --quick

bench-baseline:
	$(PYTHON) benchmarks/run_all.py
