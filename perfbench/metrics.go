package main

import (
	"strings"
	"time"

	"twine/internal/core"
	"twine/internal/prof"
	"twine/internal/sgx"
	"twine/tsql"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics; TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p50_geomean_us", "us"},
	{"max_rss_mib", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"wasm.load_ms", "ms"},
	{"tsql.stmts_per_commit", "count"},
	{"tsql.refreshes_per_read", "count"},
	{"tsql.fanout_share", "ratio"},
	{"tsql.shard_max_share", "ratio"},
	{"litedb.pager_hit_ratio", "ratio"},
	{"litedb.pager_read_us_per_op", "us"},
	{"litedb.pager_commit_us_per_commit", "us"},
	{"litedb.pager_journal_us_per_commit", "us"},
	{"litedb.exec_us_per_op", "us"},
	{"ipfs.cache_hit_ratio", "ratio"},
	{"ipfs.readpath_us_per_op", "us"},
	{"ipfs.writepath_us_per_commit", "us"},
	{"ipfs.crypto_us_per_op", "us"},
	{"wasi.calls_per_op", "count"},
	{"sgx.ecalls_per_op", "count"},
	{"sgx.ocalls_per_op", "count"},
	{"sgx.switchless_per_op", "count"},
	{"sgx.fallback_share", "ratio"},
	{"sgx.wakeups_per_op", "count"},
	{"sgx.batched_wakeup_share", "ratio"},
	{"sgx.boundary_us_per_op", "us"},
	{"sgx.tcs_waits_per_op", "count"},
	{"sgx.epc_faults_per_op", "count"},
	{"sgx.evictions_per_op", "count"},
	{"hostfs.calls_per_op", "count"},
	{"hostfs.read_bytes_per_op", "bytes"},
	{"hostfs.busy_us_per_op", "us"},
	{"hostfs.write_bytes_per_user_byte", "ratio"},
	{"hostfs.stored_bytes_per_user_byte", "ratio"},
	{"core.warm_resets_per_op", "count"},
	{"core.pool_waits_per_op", "count"},
	{"core.suspends_per_op", "count"},
	{"core.seal_bytes_per_op", "bytes"},
	{"core.resume_p50_us", "us"},
	{"core.compile_hits", "count"},
	{"op.self_us_per_op", "us"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_sum_gap_pct", "%"},
}

// gapTolerancePct is the largest trace.layer_sum_gap_pct a traced run
// accepts on its sequential phase. Above it the layer self-times no
// longer account for the wall time, and the traced run fails.
const gapTolerancePct = 10

// snap is the program's counters at one instant of a traced run. Each
// workload fills the parts its layers expose; the rest stay zero.
type snap struct {
	prof prof.Snapshot
	sgx  sgx.Stats // summed over the enclaves the workload can reach
	fs   fsSnap    // the timing host FS
	svc  tsql.ServiceStats
	pool core.PoolStats // summed over every tenant
	// stdout is serve's host-side guest output; userBytes the row bytes
	// of sql's acknowledged writes.
	stdout    fsSnap
	userBytes int64
}

func (s *snap) counter(name string) float64 { return float64(s.prof.Counters[name]) }

func (s *snap) timerUS(name string) float64 {
	return float64(s.prof.Timers[name].Nanoseconds()) / 1e3
}

// wasiCalls counts every WASI call the registry saw.
func (s *snap) wasiCalls() float64 {
	var n int64
	for k, v := range s.prof.Counters {
		if strings.HasPrefix(k, "wasi.") {
			n += v
		}
	}
	return float64(n)
}

func (s *snap) boundaryUS() float64 { return s.timerUS("sgx.ocall") + s.timerUS("sgx.switchless") }

// delta is the activity between two snaps of one traced phase.
type delta struct{ a, b *snap }

func (d delta) counter(name string) float64 { return d.b.counter(name) - d.a.counter(name) }
func (d delta) timerUS(name string) float64 { return d.b.timerUS(name) - d.a.timerUS(name) }

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// layerMetrics computes every per-layer metric that is a delta of the
// program's counters over a traced phase of ops operations, whose
// acknowledged writes carried userBytes of row data.
func layerMetrics(m map[string]float64, d delta, ops float64, userBytes float64) {
	a, b := d.a, d.b
	// tsql
	commits := float64(b.svc.GroupCommits - a.svc.GroupCommits)
	var maxShard int64
	for i := range b.svc.PointReads {
		var before int64
		if i < len(a.svc.PointReads) {
			before = a.svc.PointReads[i]
		}
		if x := b.svc.PointReads[i] - before; x > maxShard {
			maxShard = x
		}
	}
	points := float64(sum(b.svc.PointReads) - sum(a.svc.PointReads))
	fanouts := float64(b.svc.FanOuts - a.svc.FanOuts)
	reads := points + fanouts
	m["tsql.stmts_per_commit"] = ratio(float64(b.svc.GroupedStmts-a.svc.GroupedStmts), commits)
	m["tsql.refreshes_per_read"] = ratio(float64(b.svc.ReplicaRefreshes-a.svc.ReplicaRefreshes), reads)
	m["tsql.fanout_share"] = ratio(fanouts, reads)
	m["tsql.shard_max_share"] = ratio(float64(maxShard), points)

	// litedb
	hits, misses := d.counter("pager.hit"), d.counter("pager.miss")
	m["litedb.pager_hit_ratio"] = ratio(hits, hits+misses)
	m["litedb.pager_read_us_per_op"] = ratio(d.timerUS("pager.read"), ops)
	m["litedb.pager_commit_us_per_commit"] = ratio(d.timerUS("pager.commit"), commits)
	m["litedb.pager_journal_us_per_commit"] = ratio(d.timerUS("pager.journal"), commits)
	m["litedb.exec_us_per_op"] = ratio(d.timerUS("litedb.exec"), ops)

	// ipfs
	ch, cm := d.counter("ipfs.cache.hit"), d.counter("ipfs.cache.miss")
	m["ipfs.cache_hit_ratio"] = ratio(ch, ch+cm)
	m["ipfs.readpath_us_per_op"] = ratio(d.timerUS("ipfs.readpath"), ops)
	m["ipfs.writepath_us_per_commit"] = ratio(d.timerUS("ipfs.writepath"), commits)
	m["ipfs.crypto_us_per_op"] = ratio(d.timerUS("ipfs.crypto"), ops)

	// wasi
	m["wasi.calls_per_op"] = ratio(b.wasiCalls()-a.wasiCalls(), ops)

	// sgx
	sl, fb := d.counter("sgx.switchless"), d.counter("sgx.switchless.fallback")
	m["sgx.ecalls_per_op"] = ratio(d.counter("sgx.ecall"), ops)
	m["sgx.ocalls_per_op"] = ratio(d.counter("sgx.ocall"), ops)
	m["sgx.switchless_per_op"] = ratio(sl, ops)
	m["sgx.fallback_share"] = ratio(fb, sl+fb)
	m["sgx.wakeups_per_op"] = ratio(d.counter("sgx.switchless.wakeup"), ops)
	m["sgx.batched_wakeup_share"] = ratio(float64(b.sgx.BatchedWakeups-a.sgx.BatchedWakeups), float64(b.sgx.SwitchlessCalls-a.sgx.SwitchlessCalls))
	m["sgx.boundary_us_per_op"] = ratio(b.boundaryUS()-a.boundaryUS(), ops)
	m["sgx.tcs_waits_per_op"] = ratio(float64(b.sgx.TCSWaits-a.sgx.TCSWaits), ops)
	m["sgx.epc_faults_per_op"] = ratio(float64(b.sgx.PageFaults-a.sgx.PageFaults), ops)
	m["sgx.evictions_per_op"] = ratio(float64(b.sgx.Evictions-a.sgx.Evictions), ops)

	// hostfs
	fs := b.fs.sub(a.fs)
	m["hostfs.calls_per_op"] = ratio(float64(fs.calls), ops)
	m["hostfs.read_bytes_per_op"] = ratio(float64(fs.readBytes), ops)
	m["hostfs.busy_us_per_op"] = ratio(float64(fs.busyNs)/1e3, ops)
	m["hostfs.write_bytes_per_user_byte"] = ratio(float64(fs.writeBytes), userBytes)

	// core
	m["core.warm_resets_per_op"] = ratio(float64(b.pool.WarmResets-a.pool.WarmResets), ops)
	m["core.pool_waits_per_op"] = ratio(float64(b.pool.Waits-a.pool.Waits), ops)
	m["core.suspends_per_op"] = ratio(float64(b.pool.Suspends-a.pool.Suspends), ops)
	m["core.seal_bytes_per_op"] = ratio(float64(b.pool.SealBytes-a.pool.SealBytes), ops)
}

// layerChain is the nesting the layer-sum check assumes, root first: each
// entry's inclusive time contains the next one's. A layer's self time is
// its inclusive time minus the next layer's, floored at zero, so a
// mis-nested layer shows up as a gap instead of cancelling out.
type layerChain []float64

// gapPct is how far the summed self-times fall from the busy wall time
// of n sequential clients, in percent of it.
func (c layerChain) gapPct(wall time.Duration, n int) float64 {
	var sum float64
	for i, incl := range c {
		self := incl
		if i+1 < len(c) {
			self -= c[i+1]
		}
		if self > 0 {
			sum += self
		}
	}
	busy := float64(wall.Nanoseconds()) / 1e3 * float64(n)
	gap := (busy - sum) / busy * 100
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// traceSlice is how long each system serves before the traced run
// switches to the other one in its interleaved phase.
const traceSlice = 500 * time.Millisecond

// tracedRun is the shape shared by every workload's traced run:
//
//  1. an interleaved phase: two systems, one built without a profiling
//     registry and one built with it (and the workload's timing
//     wrappers), take turns serving the workload's clients in slices of
//     traceSlice. Interleaving exposes both to the same drift of the
//     host, so trace.overhead_pct compares like with like. Every
//     per-layer counter delta is taken over the traced system's slices;
//  2. a traced phase with one client (the sequential path), on which the
//     layer self-times must add up to the wall time within
//     gapTolerancePct.
//
// Phase 1 takes two of the run's phases, phase 2 one; a workload may
// append more after run returns.
type tracedRun struct {
	rc     runConfig
	phases int
	n      int // clients of phase 1
	// build returns a fresh system: untraced when traced is false.
	build func(traced bool) (system, error)
	// snap reads the counters of a traced system.
	snap func(sys system) *snap
	// chain returns the inclusive layer times (us) of a phase's delta,
	// root first, given the benchmark's own spans.
	chain func(d delta, tr *tracer) layerChain
}

// run executes both phases and returns the traced system (still open),
// the traced slices of phase 1, their counter delta and the partial
// result.
func (t tracedRun) run() (system, *loopResult, delta, *result, error) {
	res := newResult()
	base, err := t.build(false)
	if err != nil {
		return nil, nil, delta{}, nil, err
	}
	sys, err := t.build(true)
	if err != nil {
		base.close()
		return nil, nil, delta{}, nil, err
	}
	tr := new(tracer)
	u, lr := newLoopResult(time.Now()), newLoopResult(time.Now())
	before := t.snap(sys)
	end := time.Now().Add(2 * t.rc.phase(t.phases))
	for i := int64(0); time.Now().Before(end); i++ {
		for _, side := range []struct {
			sys system
			acc *loopResult
			tr  *tracer
		}{{base, u, nil}, {sys, lr, tr}} {
			p := closedLoop(side.sys, t.rc.seed+i, t.n, traceSlice, side.tr)
			side.acc.merge(p)
			side.acc.wall += p.wall
		}
	}
	after := t.snap(sys)
	if err := base.close(); err != nil {
		sys.close()
		return nil, nil, delta{}, nil, err
	}

	seqTr := new(tracer)
	seqBefore := t.snap(sys)
	seq := closedLoop(sys, t.rc.seed-1, 1, t.rc.phase(t.phases), seqTr)
	seqAfter := t.snap(sys)
	gap := t.chain(delta{seqBefore, seqAfter}, seqTr).gapPct(seq.wall, 1)

	for _, p := range []*loopResult{u, lr, seq} {
		res.attempted += p.ops
		res.failed += p.failed
		res.errs = append(res.errs, p.errs...)
	}
	ops := float64(lr.ops)
	uRate, tRate := float64(u.ops)/u.wall.Seconds(), ops/lr.wall.Seconds()
	res.metrics["op.self_us_per_op"] = ratio(tr.op.us()-tr.api.us(), ops)
	res.metrics["trace.overhead_pct"] = (1 - tRate/uRate) * 100
	res.metrics["trace.layer_sum_gap_pct"] = gap
	res.metrics["gen.late_p99_us"] = 0
	res.extra["untraced_ops_per_s"] = uRate
	res.extra["traced_ops_per_s"] = tRate
	res.extra["sequential_ops"] = float64(seq.ops)
	res.settings["gap_tolerance_pct"] = gapTolerancePct
	res.settings["trace_slice_ms"] = traceSlice.Milliseconds()
	if gap > gapTolerancePct {
		res.fail(1, "layer self-times leave a %.1f%% gap to wall time on the sequential phase (tolerance %d%%)", gap, gapTolerancePct)
	}
	return sys, lr, delta{before, after}, res, nil
}
