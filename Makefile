# Convenience targets mirroring what CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: ci test test-reference test-smoke test-slow paper-shape scale farm figures figures-full clean-cache

# What CI runs (see .github/workflows/ci.yml): the fast tier-1 suite,
# the same suite on the pure-heap reference engine, the paper-shape
# asserts, and every fast-vs-reference parity check at smoke size.
ci: test test-reference paper-shape
	$(PYTHON) -m repro check --transactions 10

# Tier-1: the full fast suite (includes the parallel sweep smoke tests).
test:
	$(PYTHON) -m pytest -x -q

# The same suite with the engine fast paths disabled -- everything must
# behave identically on the reference event loop.
test-reference:
	REPRO_SLOW_ENGINE=1 $(PYTHON) -m pytest -x -q

# Just the tiny-scale parallel sweep smoke tests (executor determinism).
test-smoke:
	$(PYTHON) -m pytest -x -q -m sweep_smoke

# The long end-to-end figure checks.
test-slow:
	$(PYTHON) -m pytest -q -m slow

# The paper's qualitative claims, asserted on regenerated tiny-scale
# figures (timing off; perfbench/ does the timing).
paper-shape:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# The core-count scaling check: messages per flush at 4..64 cores
# (arbiter vs all-to-all), slope bands, and 64-core counter parity.
scale:
	$(PYTHON) -m repro check --only scaling --cores 4,8,16,32,64

# The delta-planner invariants: warm no-op replan, two-shard merge,
# and a scoped version bump.
farm:
	$(PYTHON) -m repro check --only farm

figures:
	$(PYTHON) -m repro figures all --scale small

# The paper-scale full tier under a one-hour budget; rerun to resume
# (completed runs are cached, only the remainder executes).
figures-full:
	$(PYTHON) -m repro figures all --full --budget 3600

clean-cache:
	rm -rf .repro-cache
