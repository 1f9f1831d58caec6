# Development targets for the DeepPlan reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full perf perf-baseline examples regolden clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Paper-sized serving experiments (full 3-hour trace, 1000+ requests per
# point); expect a multi-hour run.
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Wall-clock perf of the simulator itself (see docs/performance.md):
# full probe suite against the pre-change run, writes BENCH_perf.json.
perf:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_simcore.py --emit-bench

# Refresh the perf-smoke baseline (run on the CI reference machine).
perf-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_simcore.py --smoke --write-baseline

# Regenerate tests/golden/paper_figures.json after a deliberate
# cost-model recalibration; review and commit the diff.
regolden:
	PYTHONPATH=src $(PYTHON) tests/make_golden.py

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
