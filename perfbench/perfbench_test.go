package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/tsql"
)

// streams returns every workload's generator for one (seed, client).
func streams(seed int64, client int) map[string]opGen {
	return map[string]opGen{
		"sql-read":  newReadGen(seed, client),
		"sql-write": newWriteGen(seed, client, clients, tableRows),
		"serve":     newServeGen(seed, client),
	}
}

func take(g opGen, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestOpStreamsAreSeeded(t *testing.T) {
	a, b, c := streams(7, 0), streams(7, 0), streams(8, 0)
	for name := range a {
		x, y, z := take(a[name], 2000), take(b[name], 2000), take(c[name], 2000)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: seed 7 streams differ at op %d: %+v vs %+v", name, i, x[i], y[i])
			}
		}
		same := true
		for i := range x {
			if x[i] != z[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

func TestWriteStreamMix(t *testing.T) {
	counts := map[opKind]int{}
	g := newWriteGen(1, 0, clients, tableRows)
	last := int64(-1)
	for _, o := range take(g, 10000) {
		counts[o.kind]++
		switch o.kind {
		case opPoint:
			if o.key != last {
				t.Fatalf("read of %d, but the client last wrote %d", o.key, last)
			}
		case opUpdate:
			if o.key%clients != 0 || o.key >= hotKeys {
				t.Fatalf("client 0 updated %d, which is not one of its hot keys", o.key)
			}
			last = o.key
		case opInsert:
			if o.key < tableRows {
				t.Fatalf("insert of existing key %d", o.key)
			}
			last = o.key
		}
	}
	for kind, want := range map[opKind]float64{opUpdate: 0.6, opInsert: 0.2, opPoint: 0.2} {
		if got := float64(counts[kind]) / 10000; got < want-0.03 || got > want+0.03 {
			t.Errorf("%v share %.3f, want about %.1f", kind, got, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // 10 samples beyond rank 990
		{999, 0.99, 0, false},    // only 9 beyond
		{20, 0.50, 10, true},     // 10 beyond the median
		{19, 0.50, 0, false},     // 9 beyond
		{0, 0.50, 0, false},      // no samples
		{5000, 0.99, 4950, true}, // 50 beyond
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		// The histogram follows the same rule, to within its 1% buckets.
		h := new(hist)
		for _, v := range seq(c.n) {
			h.add(v)
		}
		got, ok = h.quantile(c.q)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 0.01*c.want) {
			t.Errorf("hist quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestTailTakesMedianWindow(t *testing.T) {
	// Five one-second windows of 2,000 samples; one window is slow. The
	// median window's p99 ignores it.
	lr := newLoopResult(time.Now())
	lr.wall = 5 * time.Second
	for w := 0; w < 5; w++ {
		for i := 0; i < 2000; i++ {
			us := float64(i % 100)
			if w == 2 {
				us *= 50
			}
			lr.record("op", time.Duration(w)*time.Second+time.Duration(i)*time.Microsecond, us)
		}
	}
	p99, ok := lr.tail(0.99)
	if !ok || math.Abs(p99-98) > 0.01*98 {
		t.Errorf("tail p99 = %v, %v; want 98 (within 1%%) from the median window", p99, ok)
	}
	if got := lr.opsPerSec(); got != 2000 {
		t.Errorf("opsPerSec = %v, want 2000", got)
	}
}

func TestLayerChainGap(t *testing.T) {
	wall := time.Second
	nested := layerChain{990e3, 900e3, 600e3, 100e3} // us, each inside the one before
	if gap := nested.gapPct(wall, 1); gap > 1.01 || gap < 0.99 {
		t.Errorf("nested chain gap %.2f%%, want 1%% (the time outside the root spans)", gap)
	}
	// A child claiming more time than its parent is mis-nested: the
	// overlap cannot cancel out, and the gap shows it.
	misnested := layerChain{990e3, 300e3, 600e3, 100e3}
	if gap := misnested.gapPct(wall, 1); gap < 25 {
		t.Errorf("mis-nested chain gap %.2f%%, want it to exceed 25%%", gap)
	}
}

func TestServeOracleFlagsCorruptAnswers(t *testing.T) {
	bin, ref, err := serveInputs()
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServe(false, bin, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	o := op{kind: opServe, tenant: serveHot, arg: 5}
	res, err := s.call(0, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(0, o, res); err != nil {
		t.Fatalf("registry answer rejected: %v", err)
	}
	if err := s.check(0, o, res.(uint32)+1); !errors.Is(err, errCheck) {
		t.Errorf("corrupted answer accepted (err %v)", err)
	}
	r := newResult()
	s.finalCheck(r)
	if r.failed != 0 {
		t.Fatalf("final check failed on a clean run: %v", r.errs)
	}
	s.served.Add(1) // a request counted as served that wrote no response
	s.finalCheck(r)
	if r.failed == 0 {
		t.Error("a missing response was not flagged")
	}
}

func TestSQLOraclesFlagCorruption(t *testing.T) {
	s, err := buildSQL(false, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.close() }()
	g := s.gen(3, 0)
	for i := 0; i < 50; i++ {
		o := g.next()
		res, err := s.call(0, o)
		if err == nil {
			err = s.check(0, o, res)
		}
		if err != nil {
			t.Fatalf("op %d (%v %d): %v", i, o.kind, o.key, err)
		}
	}
	if err := reconcile(s.svc, s.model()); err != nil {
		t.Fatalf("reconcile of a clean table: %v", err)
	}

	// A point read returning another row's value.
	rows, err := s.svc.Query("SELECT v FROM kv WHERE k = ?", tsql.Int(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(0, op{kind: opPoint, key: 12}, rows); !errors.Is(err, errCheck) {
		t.Errorf("wrong point-read value accepted (err %v)", err)
	}
	// A scan missing its last row.
	rows, err = s.svc.Query("SELECT k, v FROM kv WHERE k >= ? AND k < ? ORDER BY k", tsql.Int(100), tsql.Int(149))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(0, op{kind: opScan, key: 100, hi: 150}, rows); !errors.Is(err, errCheck) {
		t.Errorf("short scan accepted (err %v)", err)
	}
	// A row changed behind the model's back.
	if _, err := s.svc.Exec("UPDATE kv SET h = h + 1 WHERE k = ?", tsql.Int(5000)); err != nil {
		t.Fatal(err)
	}
	if err := reconcile(s.svc, s.model()); !errors.Is(err, errCheck) {
		t.Errorf("reconcile missed a corrupted row (err %v)", err)
	}
	// An acknowledged write the reopened service does not have.
	s.written[1][tableRows+insertSpan*100] = "never written"
	checked, missed, err := s.durability()
	if err != nil {
		t.Fatal(err)
	}
	if missed != 1 || checked < 2 {
		t.Errorf("durability checked %d writes and missed %d, want exactly the one never written missed", checked, missed)
	}
}

func TestTimingFSPassesBytesThrough(t *testing.T) {
	mem := hostfs.NewMemFS()
	fs := newTimingFS(mem)
	data := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(data)

	f, err := fs.OpenFile("blob", hostfs.OWrite|hostfs.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt(data, 3); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := mem.OpenFile("blob", hostfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data)+3)
	if _, err := raw.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[3:], data) || !bytes.Equal(got[:3], []byte{0, 0, 0}) {
		t.Fatal("bytes written through the wrapper differ on the wrapped FS")
	}

	f, err = fs.OpenFile("blob", hostfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(data))
	if n, err := f.ReadAt(back, 3); err != nil || n != len(data) || !bytes.Equal(back, data) {
		t.Fatalf("ReadAt through the wrapper = %d, %v, equal %v", n, err, bytes.Equal(back, data))
	}

	_, werr := fs.OpenFile("missing", hostfs.ORead)
	_, merr := mem.OpenFile("missing", hostfs.ORead)
	if werr == nil || werr.Error() != merr.Error() {
		t.Errorf("wrapper error %v, wrapped FS error %v", werr, merr)
	}
	c := fs.c.snap()
	if c.writeBytes != int64(len(data)) || c.readBytes != int64(len(data)) || c.calls != 6 {
		t.Errorf("counters %+v, want %d bytes each way over 6 calls", c, len(data))
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: the program reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not run", w.Name)
		}
	}
	if len(bj.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Work), len(workloads))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%s) = %d with output %q; want a non-zero exit and no result", strings.Join(args, " "), code, out.String())
		}
	}
}
