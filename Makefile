PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint detcheck fuzz bench-all docs-check api-check \
	figures clean

## tier-1 test suite (what CI gates on)
test:
	$(PYTHON) -m pytest -x -q

## static analysis: the repo's determinism/oracle-discipline linter
## (rule catalog: docs/static-analysis.md), the optional third-party
## checks (ruff + mypy — skipped with a notice when not installed;
## `pip install -e .[lint]` enables them), and the hash-seed variance
## smoke check (one tiny scenario under two PYTHONHASHSEED values must
## produce byte-identical RunResult JSON)
lint:
	$(PYTHON) -m repro.analysis.lint
	$(PYTHON) tools/run_static_checks.py
	$(PYTHON) -m repro.analysis.detcheck

## the hash-seed variance smoke check alone (~5 s)
detcheck:
	$(PYTHON) -m repro.analysis.detcheck

## the standing oracle-matrix differential harness at full budget
## (>= 200 generated scenarios x fresh/cold/warm cache legs; tier-1
## runs the same tests at the small smoke budget)
fuzz:
	REPRO_FUZZ_PROFILE=differential $(PYTHON) -m pytest \
	    tests/differential -q

## docs: executable snippets in docs/*.md + intra-repo markdown links
docs-check:
	$(PYTHON) -m pytest tests/docs -q
	$(PYTHON) tools/check_md_links.py

## public API surface: repro.__all__ must match tools/public_api.txt
api-check:
	$(PYTHON) tools/check_public_api.py

## every figure-regeneration benchmark (tables under benchmarks/_results/)
bench-all:
	$(PYTHON) -m pytest benchmarks -q -s

## regenerate all paper tables (parallel, cached)
figures:
	$(PYTHON) -m repro.experiments --workers 2

clean:
	rm -rf .perf_cache benchmarks/_results/.sweep_cache
	find . -name __pycache__ -prune -exec rm -rf {} +
