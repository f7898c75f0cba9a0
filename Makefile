PYTHON ?= python
# Tier-1 convention: prepend src/ without clobbering a caller's PYTHONPATH.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help test verify symbolic-smoke lint lint-verify difftest \
	difftest-smoke difftest-compiled faults faults-smoke failover-smoke \
	pool-smoke telemetry-smoke obs-smoke tenancy-smoke perf perf-smoke \
	bench-smoke benchmarks

help:
	@echo "Targets:"
	@echo "  test            tier-1 test suite (pytest tests/)"
	@echo "  verify          static verifier over all bundled middleboxes"
	@echo "  symbolic-smoke  translation validation: prove all middleboxes,"
	@echo "                  schema-check the JSON, disprove a seeded mutation"
	@echo "  lint            ruff + mypy (skipped gracefully if not installed)"
	@echo "  lint-verify     blocking ruff + mypy over src/repro/verify/"
	@echo "  difftest        full differential gauntlet (1000 programs, --shrink)"
	@echo "  difftest-smoke  fixed-seed ~60s gauntlet slice"
	@echo "  difftest-compiled  compiled-engine-vs-interpreter gauntlet (200 programs)"
	@echo "  faults          full fault campaign (500 scenarios)"
	@echo "  faults-smoke    fixed-seed ~60s campaign slice"
	@echo "  failover-smoke  fixed-seed ~60s active-standby failover campaign"
	@echo "  pool-smoke      fixed-seed punt-path server-pool campaign"
	@echo "                  (member crash/drain + live flow-state migration)"
	@echo "  telemetry-smoke trace/metrics JSON on two middleboxes + schema check"
	@echo "  obs-smoke       windowed series + INT + health JSON, schema-checked,"
	@echo "                  byte-identical across re-runs; phi-detector smoke"
	@echo "  tenancy-smoke   admit 3 middleboxes onto one switch, prove isolation"
	@echo "  perf            interpreter-vs-compiled timing -> BENCH_6.json"
	@echo "  perf-smoke      small fixed-seed perf slice + schema + differential check"
	@echo "  bench-smoke     every perfbench workload for 2 s + traced gauntlet,"
	@echo "                  each run must report correct: true; perfbench tests"
	@echo "  benchmarks      regenerate every paper table/figure"

test:
	$(PYTHON) -m pytest -q tests/

# Static verification layer over every bundled middlebox, plus a JSON
# smoke check (schema consumed by CI and external tooling).
verify:
	$(PYTHON) -m repro verify all
	$(PYTHON) -m repro verify minilb --json > /dev/null

# Translation validation smoke (blocking in CI): prove every bundled
# middlebox at the default budget, validate every report against the
# checked-in `symbolic` schema, and disprove one seeded semantic
# mutation with an interpreter-confirmed counterexample.  The CLI pass
# exercises the `verify --symbolic [--json]` surface on top.
symbolic-smoke:
	$(PYTHON) -m repro verify minilb --symbolic --json > /dev/null
	$(PYTHON) -m repro.verify.symbolic.smoke

# Advisory lint: run ruff/mypy when available, skip (successfully) when
# the environment does not have them (the image bakes in only the python
# toolchain; CI installs both).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; skipping"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/verify src/repro/ir; \
	else \
		echo "lint: mypy not installed; skipping"; \
	fi

# Blocking lint: the verification layer (including the symbolic prover)
# is held to zero ruff findings and a clean mypy run; CI gates on this
# without continue-on-error.  Still skips when the tools are absent so
# `make lint-verify` stays runnable in the bare container.
lint-verify:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro/verify; \
	else \
		echo "lint-verify: ruff not installed; skipping"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/verify; \
	else \
		echo "lint-verify: mypy not installed; skipping"; \
	fi

# The full gauntlet: 1000 programs, shrink failures to minimal reproducers.
difftest:
	$(PYTHON) -m repro difftest --runs 1000 --seed 0 --shrink

# Fixed-seed smoke slice bounded to ~60 seconds of wall clock.
difftest-smoke:
	$(PYTHON) -m repro difftest --runs 100000 --seed 0 --time-budget 60

# Compiled-engine equivalence gate: every generated program runs through
# both the IR interpreter and the compiled fast path, demanding
# byte-identical verdicts, environments, journals, and metrics.
difftest-compiled:
	$(PYTHON) -m repro difftest --compiled --runs 200 --seed 0

# The full fault campaign: 500 random fault scenarios.
faults:
	$(PYTHON) -m repro faults --runs 500 --seed 0

# Fixed-seed smoke slice bounded to ~60 seconds of wall clock.
faults-smoke:
	$(PYTHON) -m repro faults --runs 100000 --seed 0 --time-budget 60

# Active-standby failover campaign: switch crashes (packet-boundary and
# mid-batch), stale standbys, and the base fault mix, replayed against
# the failover-aware oracle.  Fixed seed, ~60 seconds.
failover-smoke:
	$(PYTHON) -m repro faults --runs 100000 --seed 0 --time-budget 60 \
		--failover

# Punt-path server-pool campaign: member crashes and drains with live
# flow-state migration, replayed against the pool-aware oracle (blast
# radius limited to owned flows, full fallback forbidden while a member
# survives).  The summary rollup — per-member crash/drain counts and
# migration-window distributions — is schema-checked before it is
# written.  Fixed seed, ~60 seconds.
pool-smoke:
	$(PYTHON) -m repro faults --runs 100000 --seed 0 --time-budget 60 \
		--servers 3 --summary-json pool_summary.json
	$(PYTHON) -m repro.telemetry.schema faults_summary pool_summary.json
	rm -f pool_summary.json

# Telemetry smoke: trace + metrics JSON on two example middleboxes, each
# validated against the checked-in schemas (same flow CI runs).
telemetry-smoke:
	$(PYTHON) -m repro trace mazunat --packets 20 --json \
		| $(PYTHON) -m repro.telemetry.schema trace -
	$(PYTHON) -m repro metrics mazunat --packets 20 --json \
		| $(PYTHON) -m repro.telemetry.schema metrics -
	$(PYTHON) -m repro trace minilb --packets 20 --deployment cached --json \
		| $(PYTHON) -m repro.telemetry.schema trace -
	$(PYTHON) -m repro metrics minilb --packets 20 --deployment cached --json \
		| $(PYTHON) -m repro.telemetry.schema metrics -

# Time-resolved observability smoke (blocking in CI): the obs report —
# windowed time series, in-band per-hop telemetry, and (on the failover
# deployment) the phi-accrual health summary — schema-checked on three
# deployment flavours, proven byte-identical across re-runs on two of
# them, plus the heartbeat detector's self-check.
obs-smoke:
	$(PYTHON) -m repro obs mazunat --packets 25 --json \
		| $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs mazunat --packets 25 --deployment failover \
		--json | $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs minilb --packets 25 --deployment cached \
		--json | $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs mazunat --packets 25 --seed 3 --json > obs_a.json
	$(PYTHON) -m repro obs mazunat --packets 25 --seed 3 --json > obs_b.json
	cmp obs_a.json obs_b.json
	$(PYTHON) -m repro obs minilb --packets 25 --seed 3 \
		--deployment cached --json > obs_c.json
	$(PYTHON) -m repro obs minilb --packets 25 --seed 3 \
		--deployment cached --json > obs_d.json
	cmp obs_c.json obs_d.json
	rm -f obs_a.json obs_b.json obs_c.json obs_d.json
	$(PYTHON) -m repro.telemetry.health

# Multi-tenant smoke: admit the calibrated 3-middlebox set onto one
# shared switch, run the interleaved workload, and require byte-exact
# per-tenant isolation against solo runs (exit 1 on any mismatch or lint
# error).  The JSON report is validated against the checked-in schema.
tenancy-smoke:
	$(PYTHON) -m repro tenancy --packets 60
	$(PYTHON) -m repro tenancy --packets 30 --json \
		| $(PYTHON) -m repro.telemetry.schema tenancy -

# The tracked perf trajectory: time interpreter vs. compiled engine on a
# 20k-packet fixed-seed workload, write + schema-check BENCH_6.json.
# Commit the result so the speedup is diffable PR-over-PR.
perf:
	$(PYTHON) -m repro perf --out BENCH_6.json

# CI slice: smaller packet count (ratios are noisier, so the >=3x gate is
# enforced only by the full `make perf` run), plus a compiled-engine
# differential slice.  The payload is still schema-checked.
perf-smoke:
	$(PYTHON) -m repro perf --packets 2000 --out BENCH_smoke.json || true
	$(PYTHON) -c "import json; from repro.eval.perf import validate_payload; \
		errors = validate_payload(json.load(open('BENCH_smoke.json'))); \
		assert not errors, errors; print('BENCH_smoke.json: schema ok')"
	$(PYTHON) -m repro difftest --compiled --runs 25 --seed 0
	rm -f BENCH_smoke.json

# Repository-benchmark smoke: every workload of BENCHMARK.json for a
# two-second window, plus the traced gauntlet run, whose spans patch
# run_label_removal and build_dependency_graph by module attribute (a
# rename of either crashes it).  Fails unless the JSON result on each
# run's last line says "correct": true.  Then the benchmark's own tests,
# which sit outside the tier-1 testpaths.
BENCH_SMOKE_RUNS = fastpath:0 shortflow:0 features:0 gauntlet:0 gauntlet:1
bench-smoke:
	@for run in $(BENCH_SMOKE_RUNS); do \
		workload=$${run%:*}; trace=$${run#*:}; \
		echo "bench-smoke: $$workload --trace $$trace"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 2 --trace $$trace > bench_smoke.txt || exit 1; \
		tail -n 1 bench_smoke.txt | $(PYTHON) -c "import json, sys; \
			result = json.load(sys.stdin); print('correct:', result['correct']); \
			sys.exit(result['correct'] is not True)" || exit 1; \
	done
	rm -f bench_smoke.txt
	$(PYTHON) -m pytest perfbench -q

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
