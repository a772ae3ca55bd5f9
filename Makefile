# Convenience targets; everything also works as the plain commands in
# the README (the docs-check target verifies exactly that).

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-fast docs-check examples bench bench-compare bench-quick bench-baseline precommit invariant-smoke reachability settable loc

test:
	$(PYTHON) -m pytest -q

# Deselects @pytest.mark.slow (the full-PHY-heavy deep sweeps); the
# full `make test` still runs everything.
test-fast:
	$(PYTHON) -m pytest -q -m "not slow"

# The documented pre-commit gate: the fast test selection, the
# CI-affordable benchmark comparison, the invariant smoke, the
# execution-reachability guard (test-fast deselects its slow pytest twin)
# and the settable-parameter guard.
precommit: test-fast bench-quick invariant-smoke reachability settable

# Fast end-to-end invariant pass: runs a bursty and a faulty scenario
# under validation="cheap", so a broken conservation law fails the gate
# even if no unit test covers it.  The 500-station run is the one that
# builds its network under the grouped draw contract; the fidelity-full
# run sends every reception through the full-PHY probe (encode, fade,
# equalise, Viterbi decode).  The three-protocol faulty run sends every
# protocol's receptions through the network's zero-forcing memo across
# fade epochs.  The paper's two topologies run multi-receiver Eq. 7
# pre-coding (heterogeneous-ap's two-client AP beamforms) and n+ joins.
invariant-smoke:
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-bursty --protocols n+ --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-bursty --protocols n+ --runs 1 --duration-ms 20 --validation cheap --fidelity full
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-faulty --protocols n+ --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-50-faulty --protocols "802.11n,n+,n+[recovery=erasure]" --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-500-bursty --protocols n+ --runs 1 --duration-ms 5 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario heterogeneous-ap --protocols "802.11n,beamforming,n+" --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario three-pair --protocols "802.11n,n+" --runs 1 --duration-ms 20 --validation cheap

# Runs the happy and adversity entry sets under a profiler and fails on
# any src/repro function none of them executes that the allowlist
# (tests/reachability_allowlist.txt) does not name with a reason; prints
# each as "path:line name (n lines)".
reachability:
	$(PYTHON) tests/reachability.py

# Scans src/repro statically and fails on any defaulted parameter that no
# call in src/, benchmarks/, examples/ or perfbench/ sets (by keyword, by
# position, through functools.partial or a ** forward) and that the
# allowlist (tests/settable_allowlist.txt) does not name with a reason;
# prints each as "path:line function(param=default)".
settable:
	$(PYTHON) tests/settable.py

# Prints the line count (wc -l) of src/repro per package, largest first,
# then its top-level modules and the total, then the code lines of that
# total: the lines left after docstrings, comments and blank lines.
loc:
	@cd src/repro && for pkg in */; do \
		[ -f "$${pkg}__init__.py" ] || continue; \
		printf '%-12s %6d\n' "$$pkg" "$$(find $$pkg -name '*.py' -exec cat {} + | wc -l)"; \
	done | sort -k2,2nr; \
	printf '%-12s %6d\n' "top-level" "$$(cat *.py | wc -l)"; \
	printf '%-12s %6d\n' "src/ total" "$$(find . -name '*.py' -exec cat {} + | wc -l)"
	@$(PYTHON) tests/code_lines.py

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
