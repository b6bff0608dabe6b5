// Command benchsnap produces a machine-readable performance snapshot of
// the paper-figure hot paths, so successive PRs have a trajectory to
// compare against instead of ad-hoc `go test -bench` runs.
//
// It times:
//
//   - the Figure 3 PolyBench kernels under native Go, plain Wasm
//     ("wamr") and Wasm-in-enclave ("twine"), the Wasm variants each at
//     the fused AoT tier, the PR 4 register tier ("-reg" suffix) and the
//     PR 7 superblock tier ("-super" suffix; the per-tier geomeans and
//     the superblock translation/bailout counts land in the snapshot's
//     notes);
//   - the Figure 4 Speedtest1 file-storage penalty (file-backed minus
//     memory-backed suite time) on in-enclave Wasm over the untrusted
//     POSIX WASI backend, with switchless OCALLs off ("twine", the PR 1
//     baseline dispatch) and on ("twine-switchless", PR 2);
//   - the Figure 7 protected-FS read-path time during the file-backed
//     random-read workload (optimised IPFS) under the same two dispatch
//     modes;
//   - the PR 3 fig-throughput grid: requests/sec of the serving pool
//     (one CPU-bound kernel plus one untrusted transport wait per
//     request) for every (TCS, workers) pair in {1,2,4,8}², showing
//     throughput scaling with the TCS pool until the CPU saturates;
//   - the PR 6 fig-faults pair: the same serving workload at 4 TCS / 4
//     workers with seeded transport faults injected into ~1% of
//     requests (each driving worker quarantine + snapshot repair) vs
//     0%, pricing fault containment in requests/sec (the ratio lands
//     in the fig-faults-overhead note);
//   - the PR 8 fig-tenants grid: requests/sec of the multi-tenant
//     registry at 4 TCS for 1/2/4/8 tenants of one shared module, warm
//     (free-list reset + switchless batch admission) vs cold
//     (per-request instantiation, no batching); the warm/cold ratio at
//     8 tenants lands in the fig-tenants-speedup-t8 note, and a warm
//     series where no request hit the warm free list is rejected;
//   - the PR 8 micro/warmcold triple: ns to provision one
//     ready-to-serve instance by full Instantiate, by
//     InstantiateFromSnapshot, and by in-place ResetFromSnapshot (the
//     warm free-list hot path);
//   - the PR 9 fig-suspend triple: requests/sec with 10× more stateful
//     tenants than the EPC holds resident, served by the instance swap
//     tier ("swap"), by the page-level clock sweep alone ("resident")
//     and by per-request instantiation ("cold"); a swap run that never
//     suspends, breaks counter conservation, reads stale state, drops
//     under half the resident throughput, or fails to beat the cold
//     floor is rejected;
//   - the PR 9 micro/sealsnap series: seal + unseal ns against snapshot
//     size (64 KiB – 16 MiB), the swap tier's per-suspend price;
//   - the PR 10 fig-shards grid: requests/sec of the sharded sealed-SQL
//     serving tier at 4 TCS for 1/2/4/8 hash partitions, under routed
//     point reads ("point"), cross-shard merged aggregates ("scan") and
//     alternating group-committed inserts with read-your-writes point
//     reads on two replicas per shard ("mixed"); the point-read speedup
//     at 4 shards lands in the fig-shards-speedup-s4 note, and a
//     multi-shard point series whose reads all landed on one partition
//     is rejected;
//
// each with warmup and a minimum measurement window, then writes a JSON
// document. The committed BENCH_<n>.json snapshots at the repository root
// were generated with the defaults:
//
//	go run ./cmd/benchsnap -o BENCH_8.json
//
// See BENCHMARKS.md for the snapshot workflow and the figure mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"twine/internal/bench"
	"twine/internal/core"
	"twine/internal/polybench"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

// Result is one timed benchmark point.
type Result struct {
	Name    string  `json:"name"`      // e.g. "fig3/gemm/twine"
	NsPerOp float64 `json:"ns_per_op"` // median wall time per operation
	Ops     int     `json:"ops"`       // measured iterations (after warmup)
}

// Snapshot is the document written to disk.
type Snapshot struct {
	Schema  string            `json:"schema"`
	Config  map[string]any    `json:"config"`
	Results []Result          `json:"results"`
	Notes   map[string]string `json:"notes,omitempty"`
}

// benchSGX mirrors bench_test.go: a scaled-down enclave that keeps the
// cost model while finishing quickly.
func benchSGX() sgx.Config {
	cfg := sgx.DefaultConfig()
	cfg.EPCSize = 24 << 20
	cfg.EPCUsable = 16 << 20
	cfg.HeapSize = 192 << 20
	cfg.ReservedSize = 16 << 20
	cfg.TransitionCost = 1700 * time.Nanosecond
	return cfg
}

// figSGX is benchSGX with a database-sized heap: the fig4/fig7 series
// build a fresh enclave per measured op, and a 192 MiB pool commit per op
// is pure allocator noise for workloads whose working set is ~2 MiB.
func figSGX() sgx.Config {
	cfg := benchSGX()
	cfg.HeapSize = 64 << 20
	cfg.ReservedSize = 4 << 20
	return cfg
}

// measure runs fn in a loop: warmup iterations first, then as many
// timed iterations as fit in minWindow (at least minOps).
func measure(fn func() error, warmup, minOps int, minWindow time.Duration) (float64, int, error) {
	return measureDur(func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}, warmup, minOps, minWindow)
}

// measureDur is measure for operations that report their own interesting
// duration (e.g. only the read-path time of a populate-then-read
// workload). The window is still advanced by wall-clock so setup cost
// bounds total runtime, but the reported ns/op is the MEDIAN of the
// reported durations — the paper-figure drivers run on shared machines
// and a median is robust against scheduler spikes a mean is not.
func measureDur(fn func() (time.Duration, error), warmup, minOps int, minWindow time.Duration) (float64, int, error) {
	for i := 0; i < warmup; i++ {
		if _, err := fn(); err != nil {
			return 0, 0, err
		}
	}
	var samples []time.Duration
	start := time.Now()
	for time.Since(start) < minWindow || len(samples) < minOps {
		d, err := fn()
		if err != nil {
			return 0, 0, err
		}
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[len(samples)/2]
	if len(samples)%2 == 0 {
		med = (samples[len(samples)/2-1] + samples[len(samples)/2]) / 2
	}
	return float64(med.Nanoseconds()), len(samples), nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	verbose := flag.Bool("v", false, "print register/superblock translation counters and instructions retired per tier")
	kernels := flag.String("kernels", "gemm,2mm,atax,jacobi-2d,cholesky,floyd-warshall",
		"comma-separated Fig3 kernels")
	n := flag.Int("n", 32, "kernel problem size")
	warmup := flag.Int("warmup", 2, "warmup iterations per point")
	minOps := flag.Int("minops", 5, "minimum timed iterations per point")
	window := flag.Duration("window", 300*time.Millisecond, "minimum measurement window per point")
	fig4Scale := flag.Int("fig4-scale", 8, "Fig4 Speedtest1 scale (0 disables the fig4 series)")
	fig7Records := flag.Int("fig7-records", 400, "Fig7 database records (0 disables the fig7 series)")
	fig7Reads := flag.Int("fig7-reads", 300, "Fig7 random point reads per op")
	thrRequests := flag.Int("thr-requests", 64, "fig-throughput requests per point (0 disables the series)")
	thrKernel := flag.String("thr-kernel", "gemm", "fig-throughput kernel")
	thrKernelN := flag.Int("thr-n", 16, "fig-throughput kernel problem size")
	thrIO := flag.Duration("thr-io", 500*time.Microsecond, "fig-throughput untrusted transport wait per request")
	faultRate := flag.Float64("fault-rate", 0.01, "fig-faults injected transport-fault probability (0 disables the series)")
	tenRequests := flag.Int("ten-requests", 64, "fig-tenants requests per tenant per point (0 disables the series)")
	warmColdPages := flag.Int("warmcold-pages", 16, "micro/warmcold guest memory pages (0 disables the series)")
	suspRequests := flag.Int("susp-requests", 2000, "fig-suspend total requests per run (0 disables the series)")
	suspMaxRes := flag.Int("susp-maxres", 4, "fig-suspend resident-instance bound (tenants = 10x this)")
	sealSnapMax := flag.Int64("sealsnap-max", 16<<20, "micro/sealsnap largest snapshot size in bytes (0 disables the series)")
	shardRequests := flag.Int("shard-requests", 256, "fig-shards requests per point (0 disables the series)")
	shardRows := flag.Int("shard-rows", 256, "fig-shards pre-ingested table rows")
	shardIO := flag.Duration("shard-io", 300*time.Microsecond, "fig-shards untrusted transport wait per shard sub-request")
	flag.Parse()

	snap := Snapshot{
		Schema: "twine-bench-snapshot/2",
		Config: map[string]any{
			"kernel_n":        *n,
			"warmup":          *warmup,
			"min_ops":         *minOps,
			"window_ms":       window.Milliseconds(),
			"epc_usable_mib":  16,
			"transit_cost_ns": 1700,
			"fig4_scale":      *fig4Scale,
			"fig7_records":    *fig7Records,
			"fig7_reads":      *fig7Reads,
			"thr_requests":    *thrRequests,
			"thr_kernel":      *thrKernel,
			"thr_kernel_n":    *thrKernelN,
			"thr_io_us":       thrIO.Microseconds(),
			"fault_rate":      *faultRate,
			"ten_requests":    *tenRequests,
			"warmcold_pages":  *warmColdPages,
			"susp_requests":   *suspRequests,
			"susp_maxres":     *suspMaxRes,
			"sealsnap_max":    *sealSnapMax,
			"shard_requests":  *shardRequests,
			"shard_rows":      *shardRows,
			"shard_io_us":     shardIO.Microseconds(),
		},
		Notes: map[string]string{
			"fig3":           "PolyBench kernels, ns/op per full kernel run (incl. checksum)",
			"fig4":           "Speedtest1 file-storage penalty on twine (file suite minus mem suite, median); '-switchless' = PR 2 ring on",
			"fig7":           "protected-FS read-path time during the Fig7 random-read workload (optimized IPFS, median); '-switchless' = PR 2 ring on",
			"fig-throughput": "PR 3 serving pool: ns/request (median) for w concurrent workers at a given TCS count; each request = one CPU-bound kernel run in-enclave + one untrusted transport wait (classic OCALL). req/s = 1e9/ns_per_op.",
			"fig-faults":     "PR 6 fault containment: ns/request (median) of the 4-TCS/4-worker serving pool with seeded transport faults injected at 0% vs the configured rate; each faulted request costs its failure plus a worker quarantine + snapshot repair. The pair bounds the containment overhead.",
			"fig-tenants":    "PR 8 multi-tenant front door: ns/request (median) for t tenants of one shared module at 4 TCS, each tenant a one-worker pool driven by its own client. 'warm' = free-list reset + switchless batch admission; 'cold' = per-request instantiation, batching off. req/s = 1e9/ns_per_op.",
			"micro-warmcold": "PR 8 instance provisioning (wasm layer, mean ns): full Instantiate vs InstantiateFromSnapshot vs in-place ResetFromSnapshot over a 16-page module.",
			"fig-suspend":    "PR 9 EPC-pressure lifecycle: ns/request (median) with 10x more stateful tenants than the EPC holds, under an 80/20 schedule. 'swap' = instance swap tier (MaxResident bound, sealed suspend/resume); 'resident' = all tenants warm, pressure served by the page-level clock sweep; 'cold' = per-request instantiation floor. req/s = 1e9/ns_per_op.",
			"micro-sealsnap": "PR 9 suspend price (sgx layer, mean ns): seal + unseal round trip vs snapshot size — AES-GCM over the sealed delta, linear in the payload.",
			"fig-shards":     "PR 10 sharded sealed-SQL tier: ns/request (median) for s hash partitions at 4 TCS, 8 clients. 'point' = routed single-shard reads; 'scan' = cross-shard merged COUNT+SUM; 'mixed' = alternating group-committed inserts and point reads on 2 replicas/shard. Each shard sub-request pays the configured transport wait while its serving handle is held; waits on different shards overlap. req/s = 1e9/ns_per_op.",
		},
	}

	// fig3: each kernel under native Go, plain Wasm (fused AoT and the
	// PR 4 register tier), and the same two tiers inside the enclave.
	// The "-reg" series' geomean against the fused series is the PR 4
	// acceptance number (BENCH_4.json).
	geoFused, geoReg := map[string]float64{}, map[string]float64{}
	geoSuper, geoNative := map[string]float64{}, 0.0
	superTranslate := map[string]string{}
	nKernels := 0
	for _, name := range strings.Split(*kernels, ",") {
		name = strings.TrimSpace(name)
		k, ok := polybench.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchsnap: unknown kernel %q\n", name)
			os.Exit(1)
		}
		nKernels++

		// native
		nsNative, ops, err := measure(func() error {
			polybench.RunNative(k, *n)
			return nil
		}, *warmup, *minOps, *window)
		die(name+"/native", err)
		snap.Results = append(snap.Results, Result{"fig3/" + name + "/native", nsNative, ops})

		bin := k.Build(*n)
		var ns = map[string]float64{}

		// wamr / wamr-reg: plain Wasm, no enclave.
		mod, err := wasm.Decode(bin)
		die(name+"/wamr decode", err)
		c, err := wasm.Compile(mod)
		die(name+"/wamr compile", err)
		for _, tier := range []struct {
			suffix string
			engine wasm.Engine
		}{{"wamr", wasm.EngineAOT}, {"wamr-reg", wasm.EngineRegister}, {"wamr-super", wasm.EngineSuperblock}} {
			imp := wasm.NewImportObject()
			polybench.MathImports(imp)
			in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: tier.engine})
			die(name+"/"+tier.suffix+" instantiate", err)
			nsOp, ops, err := measure(func() error {
				_, err := in.Invoke("run")
				return err
			}, *warmup, *minOps, *window)
			die(name+"/"+tier.suffix, err)
			snap.Results = append(snap.Results, Result{"fig3/" + name + "/" + tier.suffix, nsOp, ops})
			ns[tier.suffix] = nsOp
			if *verbose {
				fmt.Fprintf(os.Stderr, "    %-10s %12d instructions retired (%d timed runs)\n",
					tier.suffix, in.InsRetired(), ops)
			}
		}

		// twine / twine-reg: the same module inside the enclave.
		for _, tier := range []struct {
			suffix string
			engine wasm.Engine
		}{{"twine", wasm.EngineAOT}, {"twine-reg", wasm.EngineRegister}, {"twine-super", wasm.EngineSuperblock}} {
			rt, err := core.NewRuntime(core.Config{PlatformSeed: "benchsnap", SGX: benchSGX(), Engine: tier.engine})
			die(name+"/"+tier.suffix+" runtime", err)
			tmod, err := rt.LoadModule(bin)
			die(name+"/"+tier.suffix+" load", err)
			inst, err := rt.NewInstance(tmod)
			die(name+"/"+tier.suffix+" instantiate", err)
			nsOp, ops, err := measure(func() error {
				_, err := inst.Invoke("run")
				return err
			}, *warmup, *minOps, *window)
			die(name+"/"+tier.suffix, err)
			snap.Results = append(snap.Results, Result{"fig3/" + name + "/" + tier.suffix, nsOp, ops})
			ns[tier.suffix] = nsOp
			if *verbose {
				fmt.Fprintf(os.Stderr, "    %-10s %12d instructions retired (%d timed runs)\n",
					tier.suffix, inst.In.InsRetired(), ops)
				if tier.engine == wasm.EngineRegister {
					// Enclave instances run with the EPC-TLB on (default
					// config), i.e. the guarded translation form.
					st := tmod.Compiled.RegStats(true)
					fmt.Fprintf(os.Stderr, "    %-10s translate: %d funcs, %d folds, %d props, %d dead stores, %d fused, %d hoisted windows, %d bailouts\n",
						tier.suffix, st.Funcs, st.Folds, st.Props, st.DeadStores, st.Fused, st.Hoists, st.Bailouts)
				}
				if tier.engine == wasm.EngineSuperblock {
					st := tmod.Compiled.SuperStats(true)
					fmt.Fprintf(os.Stderr, "    %-10s translate: %d funcs (%d reg-bail), %d loops -> %d idiom traces + %d step loops\n",
						tier.suffix, st.Funcs, st.RegBail, st.Loops, st.Idioms, st.StepLoops)
				}
			}
		}

		st := c.SuperStats(false)
		superTranslate[name] = fmt.Sprintf("%d loops, %d idiom, %d step", st.Loops, st.Idioms, st.StepLoops)
		geoFused["wamr"] += lg(ns["wamr"])
		geoReg["wamr"] += lg(ns["wamr-reg"])
		geoSuper["wamr"] += lg(ns["wamr-super"])
		geoFused["twine"] += lg(ns["twine"])
		geoReg["twine"] += lg(ns["twine-reg"])
		geoSuper["twine"] += lg(ns["twine-super"])
		geoNative += lg(nsNative)
		fmt.Fprintf(os.Stderr, "%-16s native %10.0f ns  wamr %10.0f/%10.0f/%10.0f ns  twine %10.0f/%10.0f/%10.0f ns  (super speedup %.2fx/%.2fx)\n",
			name, nsNative, ns["wamr"], ns["wamr-reg"], ns["wamr-super"], ns["twine"], ns["twine-reg"], ns["twine-super"],
			ns["wamr"]/ns["wamr-super"], ns["twine"]/ns["twine-super"])
	}
	if nKernels > 0 {
		for _, v := range []string{"wamr", "twine"} {
			sp := math.Exp((geoFused[v] - geoReg[v]) / float64(nKernels))
			snap.Notes["fig3-reg-geomean-"+v] = fmt.Sprintf("%.3fx", sp)
			fmt.Fprintf(os.Stderr, "%-16s register-tier geomean speedup over fused: %.3fx\n", v, sp)
			sps := math.Exp((geoReg[v] - geoSuper[v]) / float64(nKernels))
			snap.Notes["fig3-super-geomean-"+v] = fmt.Sprintf("%.3fx", sps)
			ratio := math.Exp((geoSuper[v] - geoNative) / float64(nKernels))
			snap.Notes["fig3-super-vs-native-"+v] = fmt.Sprintf("%.2fx", ratio)
			fmt.Fprintf(os.Stderr, "%-16s superblock geomean speedup over reg: %.3fx (%.2fx native)\n", v, sps, ratio)
		}
		for name, bl := range superTranslate {
			snap.Notes["fig3-super-translate-"+name] = bl
		}
	}

	// Fig4/Fig7 file-backed series, switchless off ("twine", the PR 1
	// dispatch) vs on ("twine-switchless", PR 2's default).
	modes := []struct {
		suffix string
		mode   core.SwitchlessMode
	}{
		{"twine", core.SwitchlessOff},
		{"twine-switchless", core.SwitchlessOn},
	}

	// Fig 4's headline finding — the one PR 2 attacks — is the
	// file-storage penalty: "the file-backed variants are several times
	// slower than the memory-backed ones" because every file operation
	// crosses the enclave boundary (§IV-C: WAMR's WASI "plainly routes
	// most of the WASI functions to their POSIX equivalent using
	// OCALLs"). The series runs Speedtest1 in exactly that
	// configuration — in-enclave Wasm over the untrusted POSIX backend —
	// and reports the per-suite penalty (file-backed minus memory-backed
	// time), isolating the I/O stack the dispatch change touches from
	// the (identical) SQL engine time. This is also the path where the
	// write-batching of adjacent journal writes engages.
	if *fig4Scale > 0 {
		var ns [2]float64
		suite := func(storage bench.Storage, opt bench.Options) (time.Duration, error) {
			res, err := bench.RunSpeedtest(bench.Twine, storage, *fig4Scale, opt)
			var sum time.Duration
			for _, r := range res {
				sum += r.Elapsed
			}
			return sum, err
		}
		for i, m := range modes {
			opt := bench.Options{CachePages: 64, HostPOSIX: true, SGX: figSGX(), Switchless: m.mode}
			nsOp, ops, err := measureDur(func() (time.Duration, error) {
				mem, merr := suite(bench.Mem, opt)
				if merr != nil {
					return 0, merr
				}
				file, ferr := suite(bench.File, opt)
				if ferr != nil {
					return 0, ferr
				}
				if file < mem {
					return 0, nil
				}
				return file - mem, nil
			}, *warmup, *minOps, *window)
			die("fig4/"+m.suffix, err)
			snap.Results = append(snap.Results, Result{"fig4/speedtest-file-penalty/" + m.suffix, nsOp, ops})
			ns[i] = nsOp
		}
		if ns[1] > 0 {
			fmt.Fprintf(os.Stderr, "%-16s twine %12.0f ns  switchless %12.0f ns  (speedup %.2fx)\n",
				"fig4/penalty", ns[0], ns[1], ns[0]/ns[1])
		} else {
			fmt.Fprintf(os.Stderr, "%-16s penalty below measurement floor at this scale\n", "fig4/penalty")
		}
	}

	// Fig 7 decomposes the protected-FS random-read path; the series is
	// that read-path time (the figure's subject), under the optimised
	// node lifecycle where boundary crossings are the dominant share.
	if *fig7Records > 0 {
		var ns [2]float64
		for i, m := range modes {
			// A small node cache keeps the reads cold (the paper's EPC-
			// constrained regime), so every point read walks the Merkle
			// tree through the boundary.
			opt := bench.Options{CachePages: 128, IPFSCacheNodes: 16, SGX: figSGX(), Switchless: m.mode}
			nsOp, ops, err := measureDur(func() (time.Duration, error) {
				bd, berr := bench.RunBreakdown(*fig7Records, *fig7Reads, true, opt)
				return bd.ReadPath, berr
			}, *warmup, *minOps, *window)
			die("fig7/"+m.suffix, err)
			snap.Results = append(snap.Results, Result{"fig7/randread-readpath/" + m.suffix, nsOp, ops})
			ns[i] = nsOp
		}
		if ns[1] > 0 {
			fmt.Fprintf(os.Stderr, "%-16s twine %12.0f ns  switchless %12.0f ns  (speedup %.2fx)\n",
				"fig7/readpath", ns[0], ns[1], ns[0]/ns[1])
		} else {
			// A record count that fits the SQL page cache never touches
			// the protected FS; the series is then vacuous.
			fmt.Fprintf(os.Stderr, "%-16s no protected-FS reads (records fit the page cache)\n", "fig7/readpath")
		}
	}

	// fig-throughput (PR 3): requests/sec vs workers at 1/2/4/8 TCS. Each
	// measured op serves thr-requests requests through the pool; the
	// reported ns/op is per request. The runtime (enclave, module, pool)
	// is rebuilt per op so every sample includes a cold TCS pool — the
	// steady-state serving rate is what the median captures, since the
	// per-request cost dwarfs the amortised setup inside one op.
	if *thrRequests > 0 {
		var base float64
		for _, tcs := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := bench.ThroughputConfig{
					TCS:         tcs,
					Workers:     workers,
					Requests:    *thrRequests,
					Kernel:      *thrKernel,
					KernelN:     *thrKernelN,
					HostIODelay: *thrIO,
					SGX:         figSGX(),
				}
				nsOp, ops, err := measureDur(func() (time.Duration, error) {
					res, rerr := bench.RunThroughput(cfg)
					if rerr != nil {
						return 0, rerr
					}
					return res.Elapsed / time.Duration(res.Requests), nil
				}, 1, 3, *window/2)
				name := fmt.Sprintf("fig-throughput/%s/tcs%d/w%d", *thrKernel, tcs, workers)
				die(name, err)
				snap.Results = append(snap.Results, Result{name, nsOp, ops})
				if tcs == 1 && workers == 1 {
					base = nsOp
				}
				fmt.Fprintf(os.Stderr, "%-28s %10.0f ns/req  %8.0f req/s  (x%.2f vs 1 TCS/1 worker)\n",
					name, nsOp, 1e9/nsOp, base/nsOp)
			}
		}
	}

	// fig-faults (PR 6): the same serving workload at a fixed 4 TCS / 4
	// workers, with the chaos harness failing a seeded fraction of the
	// per-request transport calls. Each faulted request drives the full
	// containment path — failure classification, worker quarantine,
	// snapshot repair — so the 0%-vs-rate pair prices fault containment
	// in requests/sec.
	if *thrRequests > 0 && *faultRate > 0 {
		var ns [2]float64
		for i, rate := range []float64{0, *faultRate} {
			// 4x the fig-throughput batch so a ~1% seeded rate selects a
			// meaningful number of requests per run (the chosen seed hits
			// 3 of 256 at the defaults; the guard below rejects a
			// silently fault-free "faulted" series).
			cfg := bench.ThroughputConfig{
				TCS:         4,
				Workers:     4,
				Requests:    *thrRequests * 4,
				Kernel:      *thrKernel,
				KernelN:     *thrKernelN,
				HostIODelay: *thrIO,
				SGX:         figSGX(),
				FaultRate:   rate,
				FaultSeed:   3,
			}
			var failed, repaired int64
			nsOp, ops, err := measureDur(func() (time.Duration, error) {
				res, rerr := bench.RunThroughput(cfg)
				if rerr != nil {
					return 0, rerr
				}
				failed, repaired = res.Failed, res.Repaired
				return res.Elapsed / time.Duration(res.Requests), nil
			}, 1, 3, *window/2)
			name := fmt.Sprintf("fig-faults/%s/tcs4/w4/rate%g", *thrKernel, rate*100)
			die(name, err)
			snap.Results = append(snap.Results, Result{name, nsOp, ops})
			ns[i] = nsOp
			fmt.Fprintf(os.Stderr, "%-28s %10.0f ns/req  %8.0f req/s  (%d failed, %d repaired in last op)\n",
				name, nsOp, 1e9/nsOp, failed, repaired)
			if rate == 0 && (failed != 0 || repaired != 0) {
				die(name, fmt.Errorf("fault-free run failed %d requests, repaired %d workers", failed, repaired))
			}
			if rate > 0 && (failed == 0 || repaired == 0) {
				die(name, fmt.Errorf("faulted run exercised no containment (failed %d, repaired %d)", failed, repaired))
			}
		}
		snap.Notes["fig-faults-overhead"] = fmt.Sprintf("%.3fx ns/req at %g%% faults vs 0%%", ns[1]/ns[0], *faultRate*100)
		fmt.Fprintf(os.Stderr, "%-28s containment overhead %.3fx at %g%% faults\n", "fig-faults", ns[1]/ns[0], *faultRate*100)
	}

	// fig-tenants (PR 8): requests/sec vs tenant count at a fixed 4 TCS,
	// every tenant registering the SAME module bytes so the registry
	// compiles once and the grid prices the serving path alone. The warm
	// series is the PR 8 machinery (free-list reset + batch admission);
	// the cold series the per-request-instantiation ablation. Guards
	// reject vacuous runs: a warm point where no request was served off
	// the warm free list, or where the shared binary compiled more than
	// once, is a regression in the front door, not a slow machine.
	if *tenRequests > 0 {
		var nsWarm, nsCold map[int]float64 = map[int]float64{}, map[int]float64{}
		for _, tenants := range []int{1, 2, 4, 8} {
			for _, mode := range []struct {
				suffix string
				cold   bool
			}{{"warm", false}, {"cold", true}} {
				cfg := bench.TenantsConfig{
					TCS:      4,
					Tenants:  tenants,
					Requests: *tenRequests * tenants,
					Cold:     mode.cold,
					SGX:      figSGX(),
				}
				var last bench.TenantsResult
				nsOp, ops, err := measureDur(func() (time.Duration, error) {
					res, rerr := bench.RunTenants(cfg)
					if rerr != nil {
						return 0, rerr
					}
					last = res
					return res.Elapsed / time.Duration(res.Requests), nil
				}, 1, 3, *window/2)
				name := fmt.Sprintf("fig-tenants/tcs4/t%d/%s", tenants, mode.suffix)
				die(name, err)
				if last.CompiledModules != 1 || last.CompileHits != int64(tenants-1) {
					die(name, fmt.Errorf("shared binary not shared: %d compiled, %d cache hits for %d tenants",
						last.CompiledModules, last.CompileHits, tenants))
				}
				if !mode.cold && (last.WarmResets == 0 || last.ColdStarts != 0) {
					die(name, fmt.Errorf("no request hit the warm free list (%d warm resets, %d cold starts)",
						last.WarmResets, last.ColdStarts))
				}
				if mode.cold && last.ColdStarts == 0 {
					die(name, fmt.Errorf("cold series served no cold starts"))
				}
				snap.Results = append(snap.Results, Result{name, nsOp, ops})
				if mode.cold {
					nsCold[tenants] = nsOp
				} else {
					nsWarm[tenants] = nsOp
				}
				fmt.Fprintf(os.Stderr, "%-28s %10.0f ns/req  %8.0f req/s  (%d batched wakeups in last op)\n",
					name, nsOp, 1e9/nsOp, last.BatchedWakeups)
			}
		}
		sp := nsCold[8] / nsWarm[8]
		snap.Notes["fig-tenants-speedup-t8"] = fmt.Sprintf("%.2fx req/s warm vs cold at 8 tenants / 4 TCS", sp)
		fmt.Fprintf(os.Stderr, "%-28s warm-over-cold speedup %.2fx at 8 tenants\n", "fig-tenants", sp)
	}

	// micro/warmcold (PR 8): what one ready-to-serve instance costs by
	// provisioning strategy. RunWarmCold reports per-iteration means; the
	// in-place reset must come out strictly cheaper than instantiating
	// from the snapshot or the warm free list is not buying anything.
	if *warmColdPages > 0 {
		const iters = 100
		wc, err := bench.RunWarmCold(*warmColdPages, iters)
		die("micro/warmcold", err)
		if wc.ResetNs >= wc.SnapshotNs {
			die("micro/warmcold", fmt.Errorf("warm reset (%.0f ns) not cheaper than snapshot instantiation (%.0f ns)",
				wc.ResetNs, wc.SnapshotNs))
		}
		snap.Results = append(snap.Results,
			Result{"micro/warmcold/full-instantiate", wc.FullNs, iters},
			Result{"micro/warmcold/snapshot-instantiate", wc.SnapshotNs, iters},
			Result{"micro/warmcold/warm-reset", wc.ResetNs, iters})
		snap.Notes["micro-warmcold-ratio"] = fmt.Sprintf("%.1fx cheaper to reset in place than to instantiate from snapshot", wc.ColdWarmRatio())
		fmt.Fprintf(os.Stderr, "%-28s full %8.0f ns  snapshot %8.0f ns  reset %8.0f ns  (reset %.1fx cheaper)\n",
			"micro/warmcold", wc.FullNs, wc.SnapshotNs, wc.ResetNs, wc.ColdWarmRatio())
	}

	// fig-suspend (PR 9): ten times more stateful tenants than the swap
	// tier keeps resident, on a deliberately tiny EPC, under the 80/20
	// schedule. The swap series prices the instance-granularity tier; the
	// resident ablation serves the same pressure one page at a time
	// through the clock sweep; the cold series is the no-state floor.
	// RunSuspend itself rejects vacuous runs (zero suspends in swap mode,
	// broken Suspends == Resumes + Suspended conservation, any stale-state
	// read); the guards here enforce the acceptance economics — the swap
	// tier must hold at least half the all-resident throughput and beat
	// the cold-start floor outright.
	if *suspRequests > 0 {
		nsMode := map[string]float64{}
		for _, mode := range []string{"swap", "resident", "cold"} {
			cfg := bench.SuspendConfig{
				Mode:        mode,
				MaxResident: *suspMaxRes,
				Tenants:     10 * *suspMaxRes,
				Requests:    *suspRequests,
			}
			var last bench.SuspendResult
			nsOp, ops, err := measureDur(func() (time.Duration, error) {
				res, rerr := bench.RunSuspend(cfg)
				if rerr != nil {
					return 0, rerr
				}
				last = res
				return res.Elapsed / time.Duration(res.Requests), nil
			}, 1, 3, *window/2)
			name := fmt.Sprintf("fig-suspend/t%d/max%d/%s", cfg.Tenants, *suspMaxRes, mode)
			die(name, err)
			if mode != "swap" && last.Suspends != 0 {
				die(name, fmt.Errorf("%s ablation suspended %d instances", mode, last.Suspends))
			}
			snap.Results = append(snap.Results, Result{name, nsOp, ops})
			nsMode[mode] = nsOp
			fmt.Fprintf(os.Stderr, "%-28s %10.0f ns/req  %8.0f req/s  (%d suspends, %d resumes, %d sealed KiB, resume p50 %v)\n",
				name, nsOp, 1e9/nsOp, last.Suspends, last.Resumes, last.SealBytes>>10, last.ResumeP50)
			if mode == "swap" {
				snap.Notes["fig-suspend-resume-p50"] = last.ResumeP50.String()
				snap.Notes["fig-suspend-resume-p99"] = last.ResumeP99.String()
				snap.Notes["fig-suspend-seal-kib"] = fmt.Sprintf("%d", last.SealBytes>>10)
			}
		}
		// ns/op ratios invert to req/s ratios.
		ratioRes := nsMode["resident"] / nsMode["swap"]
		ratioCold := nsMode["cold"] / nsMode["swap"]
		if ratioRes < 0.5 {
			die("fig-suspend", fmt.Errorf("swap tier sustained only %.2fx of the all-resident req/s (acceptance floor 0.5x)", ratioRes))
		}
		if ratioCold <= 1 {
			die("fig-suspend", fmt.Errorf("swap tier (%.0f ns/req) not above the cold-start floor (%.0f ns/req)", nsMode["swap"], nsMode["cold"]))
		}
		snap.Notes["fig-suspend-vs-resident"] = fmt.Sprintf("%.2fx of the all-resident req/s at 10x over-commit", ratioRes)
		snap.Notes["fig-suspend-vs-cold"] = fmt.Sprintf("%.2fx the cold-start req/s", ratioCold)
		fmt.Fprintf(os.Stderr, "%-28s swap holds %.2fx of resident req/s, %.2fx the cold floor\n", "fig-suspend", ratioRes, ratioCold)
	}

	// micro/sealsnap (PR 9): the per-suspend seal price as the sealed
	// snapshot grows — linear AES-GCM, so the series doubles roughly with
	// the size while MB/s stays flat.
	if *sealSnapMax > 0 {
		var sizes []int64
		for _, s := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20} {
			if s <= *sealSnapMax {
				sizes = append(sizes, s)
			}
		}
		pts, err := bench.RunSealSnap(sizes)
		die("micro/sealsnap", err)
		for _, p := range pts {
			snap.Results = append(snap.Results,
				Result{fmt.Sprintf("micro/sealsnap/%dKiB/seal", p.Size>>10), p.SealNs, 1},
				Result{fmt.Sprintf("micro/sealsnap/%dKiB/unseal", p.Size>>10), p.UnsealNs, 1})
			fmt.Fprintf(os.Stderr, "%-28s seal %10.0f ns  unseal %10.0f ns  (%.0f MB/s)\n",
				fmt.Sprintf("micro/sealsnap/%dKiB", p.Size>>10), p.SealNs, p.UnsealNs, p.MBPerSec)
		}
	}

	// fig-shards (PR 10): the sharded sealed-SQL serving tier at a fixed
	// 4 TCS and 8 clients, shards doubling 1 → 8. Every response is
	// verified inside RunShards against the deterministic payload, so a
	// fast-but-wrong partitioning cannot post a number. Guards reject
	// degenerate routing (a multi-shard point series whose reads all
	// landed on one partition), an idle write tier in the mixed series,
	// and a point series that stopped scaling (under 2x req/s from 1 to
	// 4 shards; the committed snapshots show ~3.5x).
	if *shardRequests > 0 {
		nsPoint := map[int]float64{}
		for _, shards := range []int{1, 2, 4, 8} {
			for _, wl := range []string{"point", "scan", "mixed"} {
				cfg := bench.ShardsConfig{
					Shards:      shards,
					Clients:     8,
					Requests:    *shardRequests,
					Rows:        *shardRows,
					TCS:         4,
					Workload:    wl,
					HostIODelay: *shardIO,
				}
				if wl == "mixed" {
					cfg.Replicas = 2
				}
				var last bench.ShardsResult
				nsOp, ops, err := measureDur(func() (time.Duration, error) {
					res, rerr := bench.RunShards(cfg)
					if rerr != nil {
						return 0, rerr
					}
					last = res
					return res.Elapsed / time.Duration(res.Requests), nil
				}, 1, 3, *window/2)
				name := fmt.Sprintf("fig-shards/%s/s%d", wl, shards)
				die(name, err)
				if wl != "scan" && shards > 1 && last.MaxShardShare >= 1 {
					die(name, fmt.Errorf("every routed read landed on one of %d shards (share %.2f)",
						shards, last.MaxShardShare))
				}
				if wl == "scan" && shards > 1 && last.FanOuts != int64(last.Requests) {
					die(name, fmt.Errorf("scan series fanned out %d of %d requests", last.FanOuts, last.Requests))
				}
				if wl == "mixed" && (last.GroupCommits == 0 || last.GroupedStmts < last.GroupCommits) {
					die(name, fmt.Errorf("write tier idle or miscounted: %d commits, %d grouped statements",
						last.GroupCommits, last.GroupedStmts))
				}
				snap.Results = append(snap.Results, Result{name, nsOp, ops})
				if wl == "point" {
					nsPoint[shards] = nsOp
				}
				fmt.Fprintf(os.Stderr, "%-28s %10.0f ns/req  %8.0f req/s  (share %.2f, %d commits, %d refreshes in last op)\n",
					name, nsOp, 1e9/nsOp, last.MaxShardShare, last.GroupCommits, last.ReplicaRefreshes)
			}
		}
		sp := nsPoint[1] / nsPoint[4]
		if sp < 2 {
			die("fig-shards", fmt.Errorf("point reads scaled only %.2fx from 1 to 4 shards (floor 2x)", sp))
		}
		snap.Notes["fig-shards-speedup-s4"] = fmt.Sprintf("%.2fx point-read req/s at 4 shards vs 1", sp)
		snap.Notes["fig-shards-speedup-s8"] = fmt.Sprintf("%.2fx point-read req/s at 8 shards vs 1", nsPoint[1]/nsPoint[8])
		fmt.Fprintf(os.Stderr, "%-28s point-read speedup %.2fx at 4 shards, %.2fx at 8\n",
			"fig-shards", sp, nsPoint[1]/nsPoint[8])
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	die("marshal", err)
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	die("write", os.WriteFile(*out, enc, 0o644))
}

// lg is the natural log used for the geomean accumulators.
func lg(x float64) float64 { return math.Log(x) }

func die(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", what, err)
		os.Exit(1)
	}
}
