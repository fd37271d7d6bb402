# Common developer targets for the RVMA reproduction.

PYTHON ?= python3

.PHONY: install test bench ab figures docs docs-check examples validate clean

# `make ab`: alternating bench/run.py pairs, REF against the working tree.
REF ?= HEAD
WORKLOAD ?= sweep3d-fig7
PAIRS ?= 10

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

ab:
	$(PYTHON) tools/ab_pairs.py --ref $(REF) --workload $(WORKLOAD) --pairs $(PAIRS)

figures:
	$(PYTHON) -m repro.experiments.cli all --nodes 64 --out results.md

paper-scale:
	$(PYTHON) -m repro.experiments.cli fig7 --paper-scale
	$(PYTHON) -m repro.experiments.cli fig8 --paper-scale

docs:
	$(PYTHON) tools/gen_api_docs.py

docs-check:
	$(PYTHON) tools/docs_check.py

figures-svg:
	$(PYTHON) tools/render_figures.py

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

validate:
	$(PYTHON) -c "from repro.timing.validation import report; print(report())"

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
