# Convenience targets for the M3XU reproduction.

PY ?= python

.PHONY: install test lint lint-graph lint-sarif bench bench-check bench-pairs report examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# The repo's own analyzer (stdlib-only); ruff/mypy run too when installed.
# tests/ is excluded on purpose: the lint fixture corpus is known-bad.
lint:
	$(PY) -m repro lint src benchmarks examples
	-command -v ruff >/dev/null && ruff check src benchmarks examples
	-command -v mypy >/dev/null && mypy src/repro/types src/repro/arith \
		src/repro/mxu src/repro/parallel.py src/repro/cache.py \
		src/repro/resilience src/repro/analysis src/repro/serve

# Dump the interprocedural call graph (symbol table + typed edges).
lint-graph:
	$(PY) -m repro lint --graph lint-graph.json src benchmarks examples

# SARIF 2.1.0 export for CI annotation / code-scanning upload.
lint-sarif:
	$(PY) -m repro lint --sarif lint.sarif src benchmarks examples

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Gate fresh BENCH_*.json tables against the committed baselines.
bench-check:
	$(PY) benchmarks/bench_regression.py

# Benchmark pairs: PAIRS alternating runs of bench/run.py on the PARENT
# revision (extracted with git archive into a temporary directory) and on
# this working tree, parent first in odd pairs, then bench/compare.py over
# them. The result records stay in bench-pairs/.
PARENT ?= HEAD
PAIRS ?= 10

bench-pairs:
	@set -e; parent=$$(mktemp -d); trap 'rm -rf "$$parent"' EXIT; \
	git archive --format=tar $(PARENT) | tar -x -C "$$parent"; \
	mkdir -p bench-pairs; out=$$(cd bench-pairs && pwd); \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then dir="$$parent"; else dir=.; fi; \
			echo "== pair $$i/$(PAIRS): $$side"; \
			(cd "$$dir" && $(PY) bench/run.py --out "$$out/$$side-$$i.json"); \
		done; \
	done; \
	$(PY) bench/compare.py \
		--parent $$(seq -f "$$out/parent-%g.json" 1 $(PAIRS)) \
		--change $$(seq -f "$$out/change-%g.json" 1 $(PAIRS))

report:
	$(PY) examples/paper_report.py

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PY) $$ex || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; rm -rf .pytest_cache .benchmarks
