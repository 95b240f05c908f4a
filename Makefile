# Tier-1 gate: build, full test suite (which includes the telemetry
# non-perturbation regression), the distribution goodness-of-fit
# battery, a 2-domain smoke run of the engine-backed harness, the
# statistically-gated perf-diff smoke, the streaming-pipeline
# smoke (sharding determinism + streamed-vs-materialized agreement +
# the pyramid-vs-naive variance-time speedup under the perf gate), the
# live-analysis serve smoke (deterministic rolling estimates +
# exactly one drift event on an injected regime change), and the
# multi-process farm smoke (byte-identical stdout at any worker count,
# crash detection, and the workers=1 no-slower-than-stream perf gate),
# and the wavelet smoke (streamed-vs-batch logscale agreement, farm
# wavelet determinism, and the fused-cascade no-slowdown perf gate),
# and the netsim smoke (replica-sharded network-simulator stdout
# byte-identical at any worker count, the x-buffer-sizing gap report,
# and the superpose-vs-merge >= 3x perf gate both ways), and the
# benchmark's own unit tests (perfbench-test).
.PHONY: check build test test-gof test-telemetry smoke bench bench-smoke \
  perf-smoke stream-smoke serve-smoke farm-smoke wavelet-smoke obs-smoke \
  netsim-smoke perfbench-test

check: build test test-gof test-telemetry smoke bench-smoke perf-smoke \
  stream-smoke serve-smoke farm-smoke wavelet-smoke obs-smoke netsim-smoke \
  perfbench-test

build:
	dune build

# $(call perf_gate,OLD,NEW[,both]): record the Bechamel benchmarks OLD
# and NEW in one perf --record run (repetitions interleaved, so a drift
# in machine load hits both alike), give OLD's samples NEW's name in a
# copy of the record (NEW's own parked as NEW~), and require perf-diff
# OLD -> NEW to pass: no statistically significant slowdown (Welch t at
# alpha 0.01) past the 5% practical floor. With a third argument the
# gate also runs the other way and NEW -> OLD must be flagged as a
# regression.
PERF_GATE = --alpha 0.01 --min-effect 0.05
define perf_gate
	rm -f _build/perf_$(2).jsonl
	dune exec bin/wanpoisson.exe -- perf $(1) $(2) \
	  --record _build/perf_$(2).jsonl 2>/dev/null >/dev/null
	sed 's/"name":"$(2)"/"name":"$(2)~"/; s/"name":"$(1)"/"name":"$(2)"/' \
	  _build/perf_$(2).jsonl > _build/perf_$(2)_old.jsonl
	dune exec bin/wanpoisson.exe -- perf-diff $(PERF_GATE) \
	  _build/perf_$(2)_old.jsonl _build/perf_$(2).jsonl
	$(if $(3),! dune exec bin/wanpoisson.exe -- perf-diff $(PERF_GATE) \
	  _build/perf_$(2).jsonl _build/perf_$(2)_old.jsonl)
endef

test:
	dune runtest

# Statistical self-tests: every lib/dist sampler against its own
# CDF/pmf (KS for continuous, pooled chi-square for discrete), fixed
# seeds so the pass thresholds are deterministic.
test-gof:
	dune exec test/test_main.exe -- test dist-gof -q

# The determinism x telemetry regression on its own: artifacts must be
# byte-identical across jobs counts and telemetry on/off.
test-telemetry:
	dune exec test/test_main.exe -- test engine -q

smoke:
	dune exec bin/wanpoisson.exe -- run table1 --jobs 2

# The hot-path experiment under intra-experiment parallelism: fig15's
# nine Pareto count-process seeds shard over Par.map. Timing and
# progress lines go to stderr, so raw stdout must be byte-identical
# between the sequential and the 2-domain run — no filtering.
bench-smoke:
	dune exec bin/wanpoisson.exe -- run fig15 --jobs 2 \
	  2>/dev/null > _build/bench_smoke_j2.txt
	dune exec bin/wanpoisson.exe -- run fig15 --jobs 1 \
	  2>/dev/null > _build/bench_smoke_j1.txt
	diff _build/bench_smoke_j1.txt _build/bench_smoke_j2.txt
	@echo "bench-smoke: fig15 stdout byte-identical at --jobs 1 and 2"

# The perf gate end to end. One real perf --record run proves
# the schema round-trips (a self-diff of identical samples must be
# quiet); two printf-built histories then pin the statistical gate
# itself — perf-diff (Welch t + bootstrap CI from lib/stats) must stay
# quiet on resampled noise and exit nonzero on a 3x slowdown.
perf-smoke:
	rm -f _build/perf_real.jsonl
	dune exec bin/wanpoisson.exe -- perf par-map-overhead \
	  --record _build/perf_real.jsonl 2>/dev/null >/dev/null
	dune exec bin/wanpoisson.exe -- perf-diff \
	  _build/perf_real.jsonl _build/perf_real.jsonl
	printf '%s\n' '{"schema":1,"ts":1,"label":"a","entries":[{"name":"k","ns":[100,101,99,100.5,99.5,100.2]}]}' > _build/perf_a.jsonl
	printf '%s\n' '{"schema":1,"ts":2,"label":"b","entries":[{"name":"k","ns":[99.8,100.3,100.9,99.1,100.4,99.7]}]}' > _build/perf_b.jsonl
	printf '%s\n' '{"schema":1,"ts":3,"label":"c","entries":[{"name":"k","ns":[300,303,297,301.5,298.5,300.6]}]}' > _build/perf_slow.jsonl
	dune exec bin/wanpoisson.exe -- perf-diff \
	  _build/perf_a.jsonl _build/perf_b.jsonl
	! dune exec bin/wanpoisson.exe -- perf-diff \
	  _build/perf_a.jsonl _build/perf_slow.jsonl
	@echo "perf-smoke: noise quiet, 3x slowdown flagged"

# The streaming pipeline end to end. Chunk sharding must not change
# the report (stream stdout byte-identical at --jobs 1 and 2); the
# one-pass estimators must agree with the materialized array path
# (equal totals, Hurst estimates within the 0.03 acceptance band —
# compared field-wise because the materialized header/pyramid lines
# differ by design, and the decomposed-subscriber sums are only
# ulp-equal across chunkings). Finally the recorded vt-curve
# histories drive the perf gate both ways: naive -> pyramid is a
# quiet improvement, pyramid -> naive a flagged regression.
stream-smoke:
	dune exec bin/wanpoisson.exe -- stream --events 1e6 --jobs 2 \
	  2>/dev/null > _build/stream_smoke_j2.txt
	dune exec bin/wanpoisson.exe -- stream --events 1e6 --jobs 1 \
	  2>/dev/null > _build/stream_smoke_j1.txt
	diff _build/stream_smoke_j1.txt _build/stream_smoke_j2.txt
	dune exec bin/wanpoisson.exe -- stream --events 1e6 --materialized \
	  2>/dev/null > _build/stream_smoke_mat.txt
	awk '$$1=="total-count" { if (FNR==NR) t1=$$2; else t2=$$2 } \
	     $$1=="H(var-time)" { if (FNR==NR) h1=$$2; else h2=$$2 } \
	     $$1=="H(R/S)"      { if (FNR==NR) r1=$$2; else r2=$$2 } \
	     END { dh=h1-h2; if (dh<0) dh=-dh; dr=r1-r2; if (dr<0) dr=-dr; \
	           if (t1!=t2 || dh>0.03 || dr>0.03) { \
	             printf "streamed vs materialized diverged: totals %s/%s H %s/%s %s/%s\n", \
	               t1, t2, h1, h2, r1, r2; exit 1 } }' \
	  _build/stream_smoke_j1.txt _build/stream_smoke_mat.txt
	$(call perf_gate,vt-curve-1e6-naive,vt-curve-1e6,both)
	@echo "stream-smoke: jobs-determinism, materialized agreement, and"
	@echo "stream-smoke: pyramid-vs-naive vt speedup all hold under the gate"

# The live-analysis service end to end. A short Poisson -> rate-matched
# Pareto ON/OFF splice with a fixed seed must produce byte-identical
# output across runs and flag the injected correlation shift exactly
# once (the H monitor; the rate and tail monitors are parked at an
# unreachable threshold so the count is sharp). A stationary Poisson
# stream through the same monitor must stay quiet. A sparse stdin
# stream whose windows go silent must run to its summary line: a quiet
# window reports no H, it does not end the service — and no wavelet H
# outside [0, 1) either (a zero-energy octave is unusable, so such a
# window prints "hw":null, never one fitted through a floor).
SERVE_SMOKE_FLAGS = --events 2e5 --rate 100 --window 256 --cadence 64 \
  --seed 42 --h-threshold 0.4 --rate-threshold 1e9 --alpha-threshold 1e9

serve-smoke:
	dune exec bin/wanpoisson.exe -- serve $(SERVE_SMOKE_FLAGS) \
	  2>/dev/null > _build/serve_smoke_a.txt
	dune exec bin/wanpoisson.exe -- serve $(SERVE_SMOKE_FLAGS) \
	  2>/dev/null > _build/serve_smoke_b.txt
	diff _build/serve_smoke_a.txt _build/serve_smoke_b.txt
	test "$$(grep -c '"type":"drift"' _build/serve_smoke_a.txt)" = 1
	grep -q '"type":"drift","metric":"h","side":"up"' \
	  _build/serve_smoke_a.txt
	dune exec bin/wanpoisson.exe -- serve --source poisson \
	  $(SERVE_SMOKE_FLAGS) 2>/dev/null > _build/serve_smoke_stat.txt
	! grep -q '"type":"drift"' _build/serve_smoke_stat.txt
	printf '1\n2\n1000000\n' > _build/serve_smoke_sparse.in
	dune exec bin/wanpoisson.exe -- serve --source stdin --bin 1 \
	  < _build/serve_smoke_sparse.in 2>/dev/null > _build/serve_smoke_sparse.txt
	grep -q '"type":"summary"' _build/serve_smoke_sparse.txt
	! grep -Eq '"hw":(-|[1-9])' _build/serve_smoke_sparse.txt
	@echo "serve-smoke: deterministic output, one drift on the splice,"
	@echo "serve-smoke: quiet on the stationary stream, quiet windows survive"

# The multi-process farm end to end. The macro-shard grid and the
# shard-order merge depend only on the spec, never the worker count,
# so farm stdout must be byte-identical at --workers 1, 2 and 4 for a
# fixed seed — no filtering. A worker SIGKILLed mid-run
# (--inject-crash) must become a nonzero coordinator exit plus a
# structured farm.worker_died diagnostic naming the worker — never a
# hang, and never partial results on stdout. A run that draws no events
# at all must still report (total-count 0), with no wavelet H made of
# nothing (H(wavelet) n/a). Finally the recorded
# farm-count-1e8 / stream-count-1e8 histories drive the perf gate:
# the workers=1 farm path (shard streaming + frame round-trips +
# shard-order merge) must not be slower than the single-process
# stream driver it generalises.
FARM_SMOKE_FLAGS = --events 1e6 --chunk 8192 --seed 42

farm-smoke:
	dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 1 \
	  2>/dev/null > _build/farm_smoke_w1.txt
	dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 2 \
	  2>/dev/null > _build/farm_smoke_w2.txt
	dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 4 \
	  2>/dev/null > _build/farm_smoke_w4.txt
	diff _build/farm_smoke_w1.txt _build/farm_smoke_w2.txt
	diff _build/farm_smoke_w1.txt _build/farm_smoke_w4.txt
	! dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 3 \
	  --inject-crash 1 2> _build/farm_smoke_crash.err \
	  > _build/farm_smoke_crash.txt
	test ! -s _build/farm_smoke_crash.txt
	grep -q 'farm.worker_died' _build/farm_smoke_crash.err
	grep -q 'worker=1' _build/farm_smoke_crash.err
	dune exec bin/wanpoisson.exe -- farm --events 1 --rate 0.001 --bin 1 \
	  --seed 1 --workers 1 2>/dev/null > _build/farm_smoke_zero.txt
	grep -q '^  total-count   0$$' _build/farm_smoke_zero.txt
	grep -q '^  H(wavelet)    n/a$$' _build/farm_smoke_zero.txt
	$(call perf_gate,stream-count-1e8,farm-count-1e8)
	@echo "farm-smoke: workers-determinism, crash detection, a zero-event"
	@echo "farm-smoke: run, and the farm-vs-stream perf gate all hold"

# The fused wavelet estimator end to end. The streamed octave energies
# reproduce the batch Haar decomposition bit for bit, so the
# H(wavelet) report line must be byte-identical between the streamed
# and the materialized run of the same spec — an exact diff, no
# tolerance. --no-wavelet must drop the line (the read-out gate). The
# farm must report wavelet H with stdout byte-identical at --workers 1
# and 2: the v2 snapshot codec ships each shard's octave energies and
# the shard-order merge reassembles them independently of worker
# count. Finally the recorded stream-count-1e7 (read-out off) /
# wavelet-stream-1e7 (on) histories drive the perf gate: the fused
# accumulation plus O(levels) read-out must not slow the stream
# driver.
wavelet-smoke:
	dune exec bin/wanpoisson.exe -- stream --events 1e6 \
	  2>/dev/null > _build/wavelet_smoke_stream.txt
	dune exec bin/wanpoisson.exe -- stream --events 1e6 --materialized \
	  2>/dev/null > _build/wavelet_smoke_mat.txt
	grep 'H(wavelet)' _build/wavelet_smoke_stream.txt \
	  > _build/wavelet_smoke_stream_h.txt
	grep 'H(wavelet)' _build/wavelet_smoke_mat.txt \
	  > _build/wavelet_smoke_mat_h.txt
	diff _build/wavelet_smoke_stream_h.txt _build/wavelet_smoke_mat_h.txt
	dune exec bin/wanpoisson.exe -- stream --events 1e6 --no-wavelet \
	  2>/dev/null > _build/wavelet_smoke_off.txt
	! grep -q 'H(wavelet)' _build/wavelet_smoke_off.txt
	dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 1 \
	  2>/dev/null > _build/wavelet_smoke_w1.txt
	dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS) --workers 2 \
	  2>/dev/null > _build/wavelet_smoke_w2.txt
	diff _build/wavelet_smoke_w1.txt _build/wavelet_smoke_w2.txt
	grep -q 'H(wavelet)' _build/wavelet_smoke_w1.txt
	$(call perf_gate,stream-count-1e7,wavelet-stream-1e7)
	@echo "wavelet-smoke: streamed logscale diagram matches batch exactly,"
	@echo "wavelet-smoke: farm wavelet H is workers-invariant, and the"
	@echo "wavelet-smoke: fused cascade passes the no-slowdown perf gate"

# The farm observability stack end to end. A metrics+trace+log+manifest
# run must leave stdout byte-identical at --workers 1, 2 and 4 (the
# telemetry ships on stderr and side files only), produce one merged
# Chrome trace with a pid lane per worker plus the coordinator, a
# worker-attributed JSONL log, and a manifest with per-worker rows. A
# wedged worker (--inject-stall: alive, silent) must be caught by the
# missed-heartbeat deadline — nonzero exit, farm.worker_stalled on
# stderr, nothing on stdout. An unwritable --trace path must preflight
# to exit 2 naming the path before any work. Finally the recorded
# farm-count-1e8 / farm-count-1e8-obs histories drive the perf gate:
# spans + heartbeats + obs-frame round-trips must cost < 5%
# (perf-diff's default --min-effect floor).
OBS_SMOKE_FARM = dune exec bin/wanpoisson.exe -- farm $(FARM_SMOKE_FLAGS)

obs-smoke:
	$(OBS_SMOKE_FARM) --workers 3 --metrics \
	  --trace _build/obs_smoke_trace.json --log _build/obs_smoke.log \
	  --out _build/obs_smoke_run.json \
	  2> _build/obs_smoke_w3.err > _build/obs_smoke_w3.txt
	grep -q '"coordinator"' _build/obs_smoke_trace.json
	grep -q '"worker 0"' _build/obs_smoke_trace.json
	grep -q '"worker 1"' _build/obs_smoke_trace.json
	grep -q '"worker 2"' _build/obs_smoke_trace.json
	grep -q '"worker"' _build/obs_smoke.log
	grep -q '"farm_workers"' _build/obs_smoke_run.json
	dune exec bin/wanpoisson.exe -- verify-manifest _build/obs_smoke_run.json \
	  _build/obs_smoke_run.json
	$(OBS_SMOKE_FARM) --workers 1 --metrics \
	  --trace _build/obs_smoke_t1.json \
	  2>/dev/null > _build/obs_smoke_w1.txt
	$(OBS_SMOKE_FARM) --workers 2 --metrics \
	  --trace _build/obs_smoke_t2.json \
	  2>/dev/null > _build/obs_smoke_w2.txt
	diff _build/obs_smoke_w1.txt _build/obs_smoke_w2.txt
	diff _build/obs_smoke_w1.txt _build/obs_smoke_w3.txt
	! $(OBS_SMOKE_FARM) --workers 3 --inject-stall 1 --stall-timeout 1 \
	  2> _build/obs_smoke_stall.err > _build/obs_smoke_stall.txt
	test ! -s _build/obs_smoke_stall.txt
	grep -q 'farm.worker_stalled' _build/obs_smoke_stall.err
	grep -q 'worker=1' _build/obs_smoke_stall.err
	$(OBS_SMOKE_FARM) --trace /nonexistent/trace.json \
	  2> _build/obs_smoke_preflight.err > /dev/null; test $$? -eq 2
	grep -q '/nonexistent/trace.json' _build/obs_smoke_preflight.err
	$(call perf_gate,farm-count-1e8,farm-count-1e8-obs)
	@echo "obs-smoke: merged trace, worker-attributed logs, manifest rows,"
	@echo "obs-smoke: stdout workers-invariance with telemetry on, stall"
	@echo "obs-smoke: detection, preflight, and the <5% obs-cost gate hold"

# The netsim fast path end to end. Replicas — not macro-shards — are
# netsim's sharding unit (queue state cannot be split mid-stream, so
# each worker simulates whole independent replicas under per-replica
# derived RNG streams), and the coordinator merges replica partials in
# replica-index order, so netsim stdout must be byte-identical at
# --workers 1, 2 and 4 for a fixed seed — no filtering. The
# x-buffer-sizing experiment must report the Poisson-vs-heavy-tailed
# buffer-sizing gap. Finally the recorded superpose-1k-1e7 /
# superpose-merge-1k-1e7 histories drive the perf gate both ways:
# materialise-and-merge -> SoA engine is a quiet improvement (the
# >= 3x speedup recorded in BENCH_queue.json), and the reverse
# direction must be flagged as a regression.
NETSIM_SMOKE_FLAGS = --events 2e5 --replicas 4 --sources 32 \
  --discipline red --buffer 16 --seed 42

netsim-smoke:
	dune exec bin/wanpoisson.exe -- netsim $(NETSIM_SMOKE_FLAGS) \
	  --workers 1 2>/dev/null > _build/netsim_smoke_w1.txt
	dune exec bin/wanpoisson.exe -- netsim $(NETSIM_SMOKE_FLAGS) \
	  --workers 2 2>/dev/null > _build/netsim_smoke_w2.txt
	dune exec bin/wanpoisson.exe -- netsim $(NETSIM_SMOKE_FLAGS) \
	  --workers 4 2>/dev/null > _build/netsim_smoke_w4.txt
	diff _build/netsim_smoke_w1.txt _build/netsim_smoke_w2.txt
	diff _build/netsim_smoke_w1.txt _build/netsim_smoke_w4.txt
	dune exec bin/wanpoisson.exe -- run x-buffer-sizing \
	  2>/dev/null > _build/netsim_smoke_bs.txt
	grep -q 'buffer for <0.01% loss (poisson)' _build/netsim_smoke_bs.txt
	grep -q 'buffer for <0.01% loss (onoff)' _build/netsim_smoke_bs.txt
	$(call perf_gate,superpose-merge-1k-1e7,superpose-1k-1e7,both)
	@echo "netsim-smoke: workers-determinism, the buffer-sizing gap, and"
	@echo "netsim-smoke: the superpose-vs-merge perf gate all hold"

# The benchmark harness's unit tests: statistics helpers, the proof
# script, and the farm/netsim CLI stdout compared byte for byte with
# the in-process run_inline reference (test_two_seeds).
perfbench-test: build
	python3 -m unittest discover -s perfbench

# Full registry, timing each experiment (default --jobs: one per core).
bench:
	dune exec bin/wanpoisson.exe -- run all
