package tsql

import (
	"errors"
	"sync/atomic"
	"testing"

	"twine/internal/hostfs"
)

// flakyOpenFS fails every OpenFile while down is set: an untrusted host
// that drops out and comes back.
type flakyOpenFS struct {
	hostfs.FS
	down atomic.Bool
}

func (f *flakyOpenFS) OpenFile(name string, flag int) (hostfs.File, error) {
	if f.down.Load() {
		return nil, errors.New("host unavailable")
	}
	return f.FS.OpenFile(name, flag)
}

// openTestService opens a service whose writer enclaves are destroyed,
// after Close, when the test ends: Close leaves them alive, and the
// memory they hold would otherwise slow the tests that run after this one.
func openTestService(t *testing.T, cfg ShardConfig) *Service {
	t.Helper()
	svc, err := OpenService(cfg)
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	t.Cleanup(func() {
		svc.Close()
		for i := range svc.shards {
			svc.Shard(i).Runtime().Enclave.Destroy()
		}
	})
	return svc
}

// kvKeys reads every key of kv through the service, in key order.
func kvKeys(svc *Service) ([]int64, error) {
	rows, err := svc.Query(`SELECT k FROM kv ORDER BY k`)
	if err != nil {
		return nil, err
	}
	var ks []int64
	for _, row := range rows.All() {
		ks = append(ks, row[0].Int())
	}
	return ks, nil
}

// TestServiceReplicaRecoversFromFailedRefresh: a replica whose refresh
// fails while the host is down must serve again once the host is back,
// reopened from the sealed file, instead of failing every later read on
// its half-closed handle.
func TestServiceReplicaRecoversFromFailedRefresh(t *testing.T) {
	host := &flakyOpenFS{FS: hostfs.NewMemFS()}
	svc := openTestService(t, ShardConfig{Base: svcCfg(host, "refresh-platform"), Replicas: 2})
	if _, err := svc.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Exec(`INSERT INTO kv (k) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Reads alternate between the writer and the replica: open both.
	for i := 0; i < 2; i++ {
		if _, err := kvKeys(svc); err != nil {
			t.Fatalf("warm-up read %d: %v", i, err)
		}
	}
	if _, err := svc.Exec(`INSERT INTO kv (k) VALUES (2)`); err != nil {
		t.Fatal(err)
	}

	host.down.Store(true)
	failed := 0
	for i := 0; i < 2; i++ {
		if _, err := kvKeys(svc); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no read failed while the host was down; the replica refresh was not exercised")
	}
	host.down.Store(false)

	for i := 0; i < 8; i++ {
		ks, err := kvKeys(svc)
		if err != nil {
			t.Fatalf("read %d after the host recovered: %v", i, err)
		}
		if len(ks) != 2 || ks[0] != 1 || ks[1] != 2 {
			t.Fatalf("read %d after the host recovered: keys %v, want [1 2]", i, ks)
		}
	}
}

// TestServiceGroupCommitFallbackECalls: when a group commit aborts on
// one bad request, every request is replayed alone inside the writer
// enclave — one ECALL for the aborted batch plus one per replay — and
// the good rows reach replicas.
func TestServiceGroupCommitFallbackECalls(t *testing.T) {
	svc := openTestService(t, ShardConfig{
		Base:     svcCfg(hostfs.NewMemFS(), "fallback-platform"),
		Replicas: 2,
	})
	if _, err := svc.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Exec(`INSERT INTO kv (k) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Open the replica now, so the reads below see the batch through a
	// refresh from the sealed file.
	for i := 0; i < 2; i++ {
		if _, err := kvKeys(svc); err != nil {
			t.Fatalf("warm-up read %d: %v", i, err)
		}
	}

	batch := []*writeReq{
		{sql: `INSERT INTO kv (k) VALUES (2)`, stmtIdx: -1},
		{sql: `INSERT INTO kv (k) VALUES (1)`, stmtIdx: -1}, // primary-key conflict
		{sql: `INSERT INTO kv (k) VALUES (3)`, stmtIdx: -1},
	}
	for _, r := range batch {
		r.resp = make(chan writeResp, 1)
	}
	enc := svc.Shard(0).Runtime().Enclave
	before := enc.Stats().ECalls
	svc.shards[0].commitBatch(batch)
	if got, want := enc.Stats().ECalls-before, int64(1+len(batch)); got != want {
		t.Errorf("fallback batch made %d ECALLs, want %d", got, want)
	}
	if fb := svc.Stats().GroupFallbacks; fb != 1 {
		t.Errorf("GroupFallbacks = %d, want 1", fb)
	}
	for i, r := range batch {
		resp := <-r.resp
		if (resp.err != nil) != (i == 1) {
			t.Errorf("request %d: err %v", i, resp.err)
		}
	}

	// Reads alternate between the writer and the replica: check both.
	for i := 0; i < 2; i++ {
		ks, err := kvKeys(svc)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(ks) != 3 || ks[0] != 1 || ks[1] != 2 || ks[2] != 3 {
			t.Fatalf("read %d: keys %v, want [1 2 3]", i, ks)
		}
	}
	if svc.Stats().ReplicaRefreshes == 0 {
		t.Error("no replica refreshed; the replica path was not checked")
	}
}
