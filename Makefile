.PHONY: all build test table1 table2 net fleet ablations perf-check \
        bench-macro check lint analyze chaos examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

table1:
	dune exec bin/rkdctl.exe -- table1

table2:
	dune exec bin/rkdctl.exe -- table2

ablations:
	dune exec bin/rkdctl.exe -- ablations

# Table 3 (DESIGN.md section 16): learned congestion control on the
# net.cc decision point; replays the experiment at a second pool width
# and exits non-zero on digest divergence or a failed shape check.
net:
	dune exec bin/rkdctl.exe -- net

# Fleet control plane (DESIGN.md section 17): drift detection, staged
# canary rollout with automatic rollback; runs the soak twice and exits
# non-zero on digest divergence between the passes, a breaker left
# open, or install thrash.
fleet:
	dune exec bin/rkdctl.exe -- fleet

# Micro harness: one Bechamel pass writes BENCH_micro.json and fails if
# a within-run ratio (loop64/b64 batch amortization, Figure 1 collect
# interp/jit, serving collect loop8/b8) falls below its floor.
perf-check:
	dune exec bench/main.exe micro BENCH_micro.json

# Macro harness: one pass times table1/table2/ablations/net/fleet at
# domains=1 vs the pool width (RKD_DOMAINS or core count), writes
# BENCH_macro.json and fails if the pool is slower than sequential
# beyond the floor (see bench/main.ml).
bench-macro:
	dune exec bench/main.exe macro BENCH_macro.json

# Fast static-analysis smoke (~2s): a 20000-trial differential-fuzz run
# of the abstract interpreter and the engines — interp, JIT and batch
# lanes vs an independent reference that checks every interval claim.
# At the default seed it reaches programs (e.g. trial 6605, a multiply
# by 2) that a 1500-trial run never did.  The 5000-program run in the
# test suite covers a different seed.
lint:
	dune exec bin/rkdctl.exe -- absint-fuzz --trials 20000

# Static analysis gate (DESIGN.md section 15), three legs:
#   1. every program the repo ships lints clean (--strict exits nonzero
#      on any finding — a false positive fails the build);
#   2. every seeded-defect mutant in the corpus is caught by its
#      expected rule (--mutations validates the lint itself);
#   3. the serving-plane protocols model-check exhaustively at small
#      scope, and the deliberately broken variants still produce
#      counterexample traces (--self-test validates the models).
analyze:
	dune exec bin/rkdctl.exe -- analyze --strict
	dune exec bin/rkdctl.exe -- analyze --mutations
	dune exec bin/rkdctl.exe -- mc
	dune exec bin/rkdctl.exe -- mc --self-test

# Chaos soak (DESIGN.md section 12): 1000 seeded fault scenarios at pool
# width 1, replayed at width 4 — rkdctl exits non-zero unless there are
# zero uncaught exceptions, every breaker re-closed, and the digests are
# bit-identical across the two widths.  Every replay below goes through
# Par.replay (DESIGN.md section 9).  A 200-scenario soak under a 1%
# everything-fault RKD_FAULTS plan must replay just as exactly: each
# scenario runs under its own plan, so an ambient one cannot reach it.
# Then the serving fleet (DESIGN.md section 14) at 2
# and 4 shards under a 1% everything-fault plan: --soak replays the
# trace twice and exits non-zero unless decision digests are
# bit-identical and every tripped breaker re-closed.  Then the net
# experiment (DESIGN.md section 16) under the same 1% plan: the learned
# controller must degrade to its stock-Cubic fallback with digests
# bit-identical across pool widths.  Finally the fleet control plane
# (DESIGN.md section 17) under the same plan, staggered and as a
# simultaneous drift storm: staged rollouts with automatic rollback must
# replay bit-identically, re-close every breaker and keep the
# per-episode install bound.  The chaos telemetry snapshot and the
# faulted net and fleet reports are kept as CI artifacts.
chaos:
	dune exec bin/rkdctl.exe -- chaos -n 1000 -d 1 --snapshot chaos_obs.json
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- chaos -n 200 -d 1
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- serve --soak --shards 2
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- serve --soak --shards 4
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- net --json net_report_faulted.json
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- fleet --json fleet_report_faulted.json
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- fleet --storm

# The umbrella CI gate: warning-clean build, absint fuzz smoke, static
# analysis (lint corpus + protocol model checking), full test suite,
# chaos soak, micro within-run ratio gates.
check:
	dune build @all
	$(MAKE) lint
	$(MAKE) analyze
	dune runtest --force --no-buffer
	$(MAKE) chaos
	$(MAKE) perf-check

examples:
	dune exec examples/quickstart.exe
	dune exec examples/prefetch_study.exe
	dune exec examples/sched_study.exe
	dune exec examples/lean_monitoring.exe
	dune exec examples/adaptive_shift.exe
	dune exec examples/cascade.exe
	dune exec examples/cross_app.exe

clean:
	dune clean
