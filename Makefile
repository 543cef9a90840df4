# Developer entry points.  Tier-1 verify is `make test` (equivalently
# `PYTHONPATH=src python -m pytest -x -q`); the lint and static-analysis
# gates also run inside it via tests/test_lint.py and
# tests/test_static_analysis.py.

PY := PYTHONPATH=src python

.PHONY: test lint analyze slow bench-hotpaths bench-engine-reuse bench-batch-walks bench-serve bench-churn bench-faults bench-tenants bench-obs bench-e2e test-e2e

test:
	$(PY) -m pytest -x -q

# AST invariant analyzer (repro.analysis): phase registry, bulk-only token
# paths, seeded RNG, fast-path pairing, capture balance, dead imports,
# observer passivity, bare asserts.
analyze:
	$(PY) -m repro.analysis src

lint: analyze
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — running the AST dead-import gate only"; \
	fi
	$(PY) -m pytest -q tests/test_lint.py

slow:
	$(PY) -m pytest -q -m slow tests benchmarks/bench_perf_hotpaths.py benchmarks/bench_engine_reuse.py

bench-hotpaths:
	$(PY) benchmarks/bench_perf_hotpaths.py

bench-engine-reuse:
	$(PY) benchmarks/bench_engine_reuse.py

bench-batch-walks:
	$(PY) benchmarks/bench_many_walks.py

bench-serve:
	$(PY) benchmarks/bench_serve.py

bench-churn:
	$(PY) benchmarks/bench_churn.py

bench-faults:
	$(PY) benchmarks/bench_faults.py

bench-tenants:
	$(PY) benchmarks/bench_tenants.py

bench-obs:
	$(PY) benchmarks/bench_obs.py

# The end-to-end serving benchmark declared in BENCHMARK.json (run.py finds
# src/ itself, so no PYTHONPATH), and the benchmark's own tests.
bench-e2e:
	python3 benchmarks/e2e/run.py

test-e2e:
	$(PY) -m pytest benchmarks/e2e -q
