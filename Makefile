# Convenience targets for the LiFTinG reproduction.
# The python toolchain is assumed present (no installs happen here).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test loc reach reach-product collector-cost transport-strict live-smoke examples-smoke bench-scenarios bench-ledger bench-ledger-smoke bench-ledger-live scorecard

## Tier-1 test suite (must stay green).
test:
	python -m pytest -x -q

## Physical line counts of src/ and tests/ — the number ROADMAP aim 2
## ("a negative line count") is judged by.  Reported, never gated.
loc:
	@for d in src tests; do printf '%-5s %6d lines\n' $$d "$$(find $$d -name '*.py' | xargs cat | wc -l)"; done

## Who enters each definition under src/repro, who runs each line and who
## sets each option (docs/REACHABILITY.md): every product entry point —
## each scenario at smoke size through bench_scenarios.py and `repro run`,
## list / describe / audit-verify, the examples, the ledger smoke, the
## live-smoke steps — then tier-1, all under one tracer.  `reach` prints
## three tables: definitions only tests enter / nothing enters; lines
## nothing runs inside functions the product enters; constructor options
## only tests move / nothing moves (-v names them).  ~17 min on 2 cores
## (product ~10 min and tier-1 ~7 min under line events).  `reach-product`
## skips tier-1 and traces call events only: the definition table alone,
## ~5 min, CI's form.  Reported like `loc`; the only gate is every entry
## point exiting 0.
reach:
	python scripts/reach.py -v

reach-product:
	python scripts/reach.py --product-only

## What CPython's cyclic collector costs a simulated second (n = 300,
## seed 1, 30 simulated seconds, ~30 s): per second, the collections
## that started inside Simulator.run per generation and their CPU
## seconds, then what one gc.collect() finds after the run.  The run
## loop holds the collector off, so both read 0 (docs/PERFORMANCE.md
## "The run loop and the cyclic collector"); `--smoke` is CI's gate.
collector-cost:
	python scripts/collector_cost.py

## The wire contract — both byte counts of every kind: the codec's frames
## and the model sizes the simulator accounts — then the ingress fuzzers
## and the transport's own tests with leaks as failures: the transport
## owns raw file descriptors, and only a ResourceWarning (or an exception
## swallowed in a finaliser / callback) would show a forgotten
## remove_reader / close.  CI's "Wire codec + ingress fuzz smoke" step.
transport-strict:
	python -m pytest -q -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning \
		tests/test_wire_codec.py tests/gossip/test_messages.py \
		tests/runtime/test_ingress_fuzz.py tests/runtime/test_transport.py

## The live-plane acceptance, each step under a hard 120 s cap so a hung
## event loop fails fast: chaos over loopback (real sockets, scripted
## faults, expulsion + audit chain armed), the simulated churn and
## coalition sweeps that share its detector / fault path, the live +
## chaos registry smokes, and the open-loop loadgen registry smoke.  This
## is what the CI `live-smoke` job runs.
live-smoke:
	timeout 120 python -m repro.cli run chaos --set n=12 --set duration=6.0
	timeout 120 python -m repro.cli run churn --set n=24 --set duration=14.0 --set rates=0.3
	timeout 120 python -m repro.cli run coalition --set n=24 --set duration=12.0 --set sizes=3
	timeout 120 python benchmarks/bench_scenarios.py --only live --only chaos
	timeout 120 python benchmarks/bench_scenarios.py --only loadgen

## Every runnable demo under examples/, each under a hard 120 s cap
## (~75 s in all): the only thing that executes them.  This is what the
## CI `tests` job runs after the suite.
examples-smoke:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		timeout 120 python $$example > /dev/null || exit 1; \
	done

## Registry sweep: every scenario at smoke size + RunResult round-trip.
bench-scenarios:
	python benchmarks/bench_scenarios.py

## The perf ledger (BENCHMARK.json; benchmarks/ledger/README.md): every
## workload untraced then traced, one run record under
## benchmarks/results/ledger/ (~4 min).  The smoke form runs the same
## code path at toy sizes (~20 s).
bench-ledger:
	python -m benchmarks.ledger

bench-ledger-smoke:
	python -m benchmarks.ledger --smoke

## One untraced run of the live-plane workload alone: checks a change to
## the codec or the transport in ~15 s, without the 4-minute suite.
bench-ledger-live:
	python3 benchmarks/ledger/__main__.py --workload live_loopback --trace 0

## The paper's claims (-b~ = 72.95, Table 3 bounds, Table 5 cells,
## Fig. 12 at delta = 0.1, Eq. 7, ...), one seeded run per scenario,
## ~1 min: prints the markdown table committed as docs/SCORECARD.md
## (`make scorecard > docs/SCORECARD.md` refreshes it) and exits 1 when a
## claim fails.  The paper's checks that are no scenario run are tier-1.
scorecard:
	@python benchmarks/scorecard.py
