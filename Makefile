# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-record bench-sources perf-smoke hybrid-smoke examples selfcheck figures-fast reproduce-quick reproduce-full clean

install:
	$(PYTHON) setup.py develop

# Everything, including tests marked `slow` (overrides the tier-1
# default `-m 'not slow'` from pyproject.toml).
test:
	$(PYTHON) -m pytest tests/ -m ""

# Tier-1 selection: skips tests marked `slow`.
test-fast:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Dump kernel/sweep throughput numbers to BENCH_<date>.json.
bench-record:
	$(PYTHON) benchmarks/record_bench.py

# Scalar-vs-compiled source throughput table (arrivals/sec, events/sec).
bench-sources:
	$(PYTHON) benchmarks/bench_sources.py

# Engine + source microbenchmarks vs benchmarks/baseline.json; warns
# on >20% regression, exits non-zero past the hard threshold on a
# drain-kernel metric or on an absolute (allocation, RSS, hybrid) gate.
perf-smoke:
	$(PYTHON) benchmarks/check_regression.py

# Hybrid fluid/packet engine smoke: pure-vs-hybrid fidelity within the
# epsilon knob and epsilon=0 bit-identity; exits non-zero on either.
hybrid-smoke:
	$(PYTHON) benchmarks/bench_hybrid.py

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script; done

selfcheck:
	$(PYTHON) -m repro.cli selfcheck

# All figures at reduced scale, fanned out over every core, cached.
figures-fast:
	$(PYTHON) -m repro.cli all --scale 0.1 --jobs 0 --export-dir results/fast

# Scaled-down end-to-end reproduction (~10 minutes).
reproduce-quick:
	$(PYTHON) -m repro.cli all --scale 0.1 --export-dir results/quick

# Paper-scale reproduction (hours).
reproduce-full:
	$(PYTHON) -m repro.cli all --export-dir results/full

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks results
	find . -name __pycache__ -type d -exec rm -rf {} +
