package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"twine/internal/core"
	"twine/internal/prof"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

const (
	// serveTenants tenants of one shared module compete for
	// serveMaxResident resident workers, so the swap tier suspends and
	// resumes under the 80/20 schedule.
	serveTenants     = 20
	serveMaxResident = 8
	// serveHot is the hot fifth of the tenants, which gets 80% of the
	// requests. It fits under serveMaxResident with room for the cold
	// tail's visitors.
	serveHot = 4
	// serveArgs is the range of request arguments; the oracle answers for
	// all of them are computed once, outside the registry.
	serveArgs = 64
	// serveRate is the open-loop phase's offered load. Its one sender
	// sustains about 4,500 requests/s in closed loop on the reference
	// host, so this is about half of that, and a quarter of the two-client
	// capacity.
	serveRate = 2000
	// serveLatencyLimit is the open-loop p99 the workload is expected to
	// meet at serveRate; the run reports whether it did.
	serveLatencyLimit = 2 * time.Millisecond
	// serveResponse is the bytes each request writes to stdout.
	serveResponse = 16
)

// serveSGX is a deliberately small EPC, so residency is scarce.
func serveSGX() sgx.Config {
	c := sgx.DefaultConfig()
	c.EPCSize = 4 << 20
	c.EPCUsable = 2 << 20
	c.HeapSize = 32 << 20
	return c
}

// serveGuest builds the tenant module. run(x) folds a 128 KiB working set
// (a seeded data segment plus zero pages) into a checksum seeded by x,
// stores the checksum into a cell the fold reads, writes a 16-byte
// response through fd_write, and returns the checksum. The store makes
// the answer depend on the warm reset: a worker that served a request
// and was not reset to the golden snapshot answers the next one wrongly.
func serveGuest() []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(2, 2)
	seg := make([]byte, 4096)
	for i := range seg {
		seg[i] = byte(mix64(uint64(i)))
	}
	m.Data(4096, seg)
	m.Data(64, []byte("response-body-ok"))

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := f.AddLocal(wasmgen.I32), f.AddLocal(wasmgen.I32)
	f.LocalGet(0).LocalSet(s)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(128 << 10).I32GeS().BrIf(1)
	f.LocalGet(s).I32Const(31).I32Mul().LocalGet(i).I32Load(0).I32Add().LocalSet(s)
	f.LocalGet(i).I32Const(128).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	// cell (x mod 16) * 4 KiB + 8 KiB: on the fold's stride, past the segment
	f.LocalGet(0).I32Const(15).I32And().I32Const(12).I32Shl().I32Const(8192).I32Add()
	f.LocalGet(s).I32Store(0)
	// iovec at 0: base 64, len 16; fd_write(stdout, iovec, 1, nwritten@32)
	f.I32Const(0).I32Const(64).I32Store(0)
	f.I32Const(4).I32Const(serveResponse).I32Store(0)
	f.I32Const(1).I32Const(0).I32Const(1).I32Const(32).Call(fdWrite).Drop()
	f.LocalGet(s)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// serveReference computes run(x) for every argument on the interpreter
// tier, outside any enclave and registry, each from a fresh instance.
func serveReference(bin []byte) ([]uint32, error) {
	mod, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		return nil, err
	}
	imp := wasm.NewImportObject()
	imp.AddFunc(wasm.HostFunc{Module: "wasi_snapshot_preview1", Name: "fd_write",
		Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
		Fn:   func(in *wasm.Instance, _ []uint64) ([]uint64, error) { return in.Ret1(0), nil },
	})
	ref := make([]uint32, serveArgs)
	for x := range ref {
		in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: wasm.EngineInterp})
		if err != nil {
			return nil, err
		}
		out, err := in.Invoke("run", uint64(x))
		if err != nil {
			return nil, err
		}
		ref[x] = uint32(out[0])
	}
	return ref, nil
}

// serveSystem is one enclave runtime with a registry of serveTenants
// FreshState tenants of the same module.
type serveSystem struct {
	rt      *core.Runtime
	reg     *core.Registry
	prof    *prof.Registry
	names   []string
	tenants []*core.Tenant
	ref     []uint32
	out     *hostWriter
	served  atomic.Int64 // successful requests, warm-up included
	// resumed holds, in traced runs, the latency of each request that
	// resumed its tenant's suspended worker, by client.
	resumed [clients]latencies
}

func buildServe(traced bool, bin []byte, ref []uint32) (*serveSystem, error) {
	s := &serveSystem{ref: ref, out: &hostWriter{timed: traced}}
	if traced {
		s.prof = prof.NewRegistry()
	}
	rt, err := core.NewRuntime(core.Config{
		PlatformSeed:    "perfbench-serve",
		SGX:             serveSGX(),
		Switchless:      core.SwitchlessOn,
		SwitchlessBatch: true,
		Prof:            s.prof,
	})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.reg = rt.NewRegistry(core.RegistryConfig{MaxResident: serveMaxResident})
	for t := 0; t < serveTenants; t++ {
		name := fmt.Sprintf("tenant-%02d", t)
		t, err := s.reg.Register(name, bin, core.TenantConfig{Workers: 1, Stdout: s.out})
		if err != nil {
			s.close()
			return nil, err
		}
		s.names = append(s.names, name)
		s.tenants = append(s.tenants, t)
	}
	// Warm-up: two checked requests per tenant, so every tenant has been
	// served, and suspended or resumed, before anything is timed.
	for rep := 0; rep < 2; rep++ {
		for t := range s.names {
			o := op{kind: opServe, tenant: t, arg: uint64(t + rep)}
			res, err := s.call(0, o)
			if err == nil {
				err = s.check(0, o, res)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", s.names[t], err)
			}
		}
	}
	return s, nil
}

func (s *serveSystem) gen(seed int64, client int) opGen { return newServeGen(seed, client) }

func (s *serveSystem) call(c int, o op) (any, error) {
	if s.prof == nil {
		return s.submit(o)
	}
	// Traced: the tenant's resume count around the call tells whether
	// this request resumed a suspended worker.
	pool := s.tenants[o.tenant].Pool()
	before := pool.Stats().Resumes
	start := time.Now()
	res, err := s.submit(o)
	if err == nil && pool.Stats().Resumes > before {
		s.resumed[c].add(time.Since(start))
	}
	return res, err
}

func (s *serveSystem) submit(o op) (any, error) {
	out, err := s.reg.Submit(s.names[o.tenant], o.arg)
	if err != nil {
		return nil, err
	}
	s.served.Add(1)
	return uint32(out[0]), nil
}

func (s *serveSystem) check(_ int, o op, res any) error {
	if got, want := res.(uint32), s.ref[o.arg]; got != want {
		return fmt.Errorf("%w: %s run(%d) = %d, reference %d", errCheck, s.names[o.tenant], o.arg, got, want)
	}
	return nil
}

func (s *serveSystem) class(o op) string {
	if o.tenant < serveHot {
		return "hot"
	}
	return "cold"
}

func (s *serveSystem) close() error {
	err := s.reg.Close()
	s.rt.Enclave.Destroy()
	return err
}

// finalCheck verifies the swap tier's conservation law and that every
// served request wrote its response to the host.
func (s *serveSystem) finalCheck(r *result) {
	st := s.reg.Stats()
	if st.Suspends != st.Resumes+st.Suspended {
		r.fail(1, "swap counters not conserved: %d suspends != %d resumes + %d suspended", st.Suspends, st.Resumes, st.Suspended)
	}
	if got, want := s.out.c.writeBytes.Load(), s.served.Load()*serveResponse; got != want {
		r.fail(1, "host stdout holds %d bytes, %d served requests wrote %d", got, s.served.Load(), want)
	}
}

func (s *serveSystem) snap() *snap {
	sn := &snap{prof: s.prof.Snapshot(), sgx: s.rt.Enclave.Stats(), stdout: s.out.c.snap()}
	for _, ts := range s.reg.Stats().PerTenant {
		p := ts.Pool
		sn.pool.WarmResets += p.WarmResets
		sn.pool.Waits += p.Waits
		sn.pool.Suspends += p.Suspends
		sn.pool.SealBytes += p.SealBytes
	}
	return sn
}

// openLoop offers the ops of one seeded stream at rate per second for d,
// from one sender. Each op is due at a fixed point of the schedule and
// its latency is timed from then, so a stall also charges the requests it
// delays. late collects how far behind schedule each op was sent.
func openLoop(sys system, seed int64, rate float64, d time.Duration, tr *tracer) (lr *loopResult, late latencies) {
	g := sys.gen(seed, clients) // a stream no closed-loop client uses
	start := time.Now()
	lr = newLoopResult(start)
	for i := 0; i < int(rate*d.Seconds()); i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		spinUntil(due)
		sent := time.Now()
		late.add(sent.Sub(due))
		runOne(sys, 0, g.next(), sent, due, lr, tr)
	}
	lr.wall = time.Since(start)
	return lr, late
}

// spinUntil busy-waits until t without giving up the processor. A sender
// that sleeps or yields instead wakes late: timers fire up to about a
// millisecond late on Linux, and a goroutine that yields can wait
// milliseconds in the global run queue behind the system's own spinning
// goroutines. Those stalls are the harness's, not the system's, and they
// would dominate the tail. The system's other goroutines run on the
// second processor meanwhile.
func spinUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}

func serveSettings(r *result) {
	c := serveSGX()
	r.settings["tenants"] = serveTenants
	r.settings["max_resident"] = serveMaxResident
	r.settings["hot_tenants"] = serveHot
	r.settings["hot_share"] = 0.8
	r.settings["clients"] = clients
	r.settings["open_loop_senders"] = 1
	r.settings["offered_rate_per_s"] = serveRate
	r.settings["latency_limit_p99_us"] = serveLatencyLimit.Microseconds()
	r.settings["epc_bytes"] = c.EPCSize
	r.settings["epc_usable_bytes"] = c.EPCUsable
	r.settings["heap_bytes"] = c.HeapSize
	r.settings["tenant_mode"] = "fresh-state, 1 worker"
	r.settings["switchless"] = "on, batched"
}

func serveInputs() ([]byte, []uint32, error) {
	bin := serveGuest()
	ref, err := serveReference(bin)
	return bin, ref, err
}

// measureServe is the untraced serve run: a closed loop for three
// quarters of the run gives every gated metric; an open loop at serveRate
// for the last quarter gives the open-loop latencies as extras.
func measureServe(rc runConfig) (*result, error) {
	bin, ref, err := serveInputs()
	if err != nil {
		return nil, err
	}
	sys, setup, err := setupTimes(func() (system, error) { return buildServe(false, bin, ref) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	closed := closedLoop(sys, rc.seed, clients, 3*rc.phase(4), nil)
	open, late := openLoop(sys, rc.seed, serveRate, rc.phase(4), nil)
	res := newResult()
	for _, p := range []*loopResult{closed, open} {
		res.attempted += p.ops
		res.failed += p.failed
		res.errs = append(res.errs, p.errs...)
	}
	sys.(*serveSystem).finalCheck(res)
	res.metrics["setup_s"] = setup
	res.metrics["ops_per_s"] = closed.opsPerSec()
	if err := latencyMetrics(res, closed); err != nil {
		return nil, err
	}
	res.metrics["max_rss_mib"] = maxRSSMiB()
	classLatencies(res, "hot", closed.class["hot"])
	classLatencies(res, "cold", closed.class["cold"])
	classLatencies(res, "open", open.total())
	if p99, ok := late.p99(); ok {
		res.extra["gen_late_p99_us"] = p99
	}
	res.extra["open_achieved_rate_per_s"] = float64(open.ops) / open.wall.Seconds()
	met := 0.0
	if p99, ok := open.tail(0.99); ok && p99 <= float64(serveLatencyLimit.Microseconds()) {
		met = 1
	}
	res.extra["open_meets_latency_limit"] = met
	serveSettings(res)
	return res, nil
}

// traceServe is the traced serve run; its last phase is a traced open
// loop that measures how late the generator ran.
func traceServe(rc runConfig) (*result, error) {
	bin, ref, err := serveInputs()
	if err != nil {
		return nil, err
	}
	t := tracedRun{
		rc: rc, phases: 4, n: clients,
		build: func(traced bool) (system, error) { return buildServe(traced, bin, ref) },
		snap:  func(sys system) *snap { return sys.(*serveSystem).snap() },
		chain: func(d delta, tr *tracer) layerChain {
			return layerChain{tr.op.us(), tr.api.us(), d.timerUS("wasi.time"),
				d.b.boundaryUS() - d.a.boundaryUS(), float64(d.b.stdout.busyNs-d.a.stdout.busyNs) / 1e3}
		},
	}
	sys, lr, d, res, err := t.run()
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ss := sys.(*serveSystem)
	open, late := openLoop(sys, rc.seed+3, serveRate, rc.phase(t.phases), new(tracer))
	res.attempted += open.ops
	res.failed += open.failed
	res.errs = append(res.errs, open.errs...)
	ss.finalCheck(res)

	layerMetrics(res.metrics, d, float64(lr.ops), 0)
	st := ss.reg.Stats()
	var resumed latencies
	for _, l := range ss.resumed {
		resumed = append(resumed, l...)
	}
	sort.Float64s(resumed)
	res.metrics["core.resume_p50_us"], _ = percentile(resumed, 0.5)
	res.metrics["core.compile_hits"] = float64(st.CompileHits)
	res.metrics["wasm.load_ms"] = ratio(float64(ss.prof.Timer("twine.load").Nanoseconds())/1e6, float64(st.CompiledModules))
	res.metrics["hostfs.stored_bytes_per_user_byte"] = 0
	if p99, ok := late.p99(); ok {
		res.metrics["gen.late_p99_us"] = p99
	}
	serveSettings(res)
	return res, nil
}
