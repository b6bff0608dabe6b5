package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"twine/internal/hostfs"
	"twine/internal/prof"
	"twine/internal/sgx"
	"twine/tsql"
)

const (
	// tableRows rows of about rowBytes each make a table of about 1.7 MB,
	// so each of the two shards holds about 0.85 MB against a page cache
	// of sqlCacheKiB per handle: several times larger, so point reads
	// miss the cache and go down to the protected file system.
	tableRows   = 16000
	valueBytes  = 92
	rowBytes    = 8 + valueBytes + 8 // key, value text, value hash
	sqlCacheKiB = 128
	sqlShards   = 2
	sqlReplicas = 2
	// scanWidth consecutive keys span both shards.
	scanWidth = 50
	// hotKeys are the rows sql-write updates: about 21 KB, which stays in
	// the page cache.
	hotKeys = 200
	// ingestBatch rows go in one INSERT at setup.
	ingestBatch = 500
	// insertSpan separates the new-key ranges of the generators of one
	// run; no client inserts this many rows in a phase.
	insertSpan = 1 << 24
)

// sqlSGX sizes each shard enclave for one database handle.
func sqlSGX() sgx.Config {
	c := sgx.DefaultConfig()
	c.HeapSize = 16 << 20
	c.ReservedSize = 4 << 20
	return c
}

func sqlConfig(host hostfs.FS, p *prof.Registry) tsql.ShardConfig {
	return tsql.ShardConfig{
		Base: tsql.Config{
			Path: "perfbench.db", HostFS: host, PlatformSeed: "perfbench-sql",
			CacheKiB: sqlCacheKiB, SGX: sqlSGX(), Prof: p,
		},
		Shards: sqlShards, Replicas: sqlReplicas,
		RouteTable: "kv", RouteColumn: "k",
	}
}

// valueHash is the h column: a content hash of v small enough that the
// SUM over the whole table cannot overflow.
func valueHash(v string) int64 {
	var x uint64
	for i := 0; i < len(v); i++ {
		x = mix64(x ^ uint64(v[i]))
	}
	return int64(x % 1e9)
}

// sqlSystem is the sharded service over an in-memory host, and the
// benchmark's model of the table: rowValue(seed, k, 0) for the ingested
// keys, overridden by every acknowledged write.
type sqlSystem struct {
	svc     *tsql.Service
	host    *hostfs.MemFS
	tfs     *timingFS
	prof    *prof.Registry
	seed    int64
	write   bool
	written [clients]map[int64]string // acknowledged writes, by client
	// userBytes counts row bytes written by acknowledged writes.
	userBytes atomic.Int64
	gens      atomic.Int64
}

func buildSQL(traced, write bool, seed int64) (*sqlSystem, error) {
	s := &sqlSystem{host: hostfs.NewMemFS(), seed: seed, write: write}
	for c := range s.written {
		s.written[c] = map[int64]string{}
	}
	var fs hostfs.FS = s.host
	if traced {
		s.prof = prof.NewRegistry()
		s.tfs = newTimingFS(s.host)
		fs = s.tfs
	}
	svc, err := tsql.OpenService(sqlConfig(fs, s.prof))
	if err != nil {
		return nil, err
	}
	s.svc = svc
	if err := s.ingest(); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: checked point reads until every shard has opened its
	// replica handle and the page caches hold their steady working set.
	g := newReadGen(seed^0x5eed, 0)
	for i := 0; i < 400; i++ {
		o := g.next()
		res, err := s.call(0, o)
		if err == nil {
			err = s.check(0, o, res)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// ingest creates the table and loads tableRows rows.
func (s *sqlSystem) ingest() error {
	if _, err := s.svc.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT, h INTEGER)"); err != nil {
		return err
	}
	var sb strings.Builder
	args := make([]tsql.Value, 0, 3*ingestBatch)
	for lo := int64(0); lo < tableRows; lo += ingestBatch {
		sb.Reset()
		args = args[:0]
		sb.WriteString("INSERT INTO kv (k, v, h) VALUES ")
		for k := lo; k < lo+ingestBatch && k < tableRows; k++ {
			if k > lo {
				sb.WriteString(", ")
			}
			sb.WriteString("(?, ?, ?)")
			v := rowValue(s.seed, k, 0)
			args = append(args, tsql.Int(k), tsql.Text(v), tsql.Int(valueHash(v)))
		}
		if _, err := s.svc.Exec(sb.String(), args...); err != nil {
			return fmt.Errorf("ingest rows from %d: %w", lo, err)
		}
	}
	return nil
}

func (s *sqlSystem) gen(seed int64, client int) opGen {
	if !s.write {
		return newReadGen(seed, client)
	}
	base := tableRows + s.gens.Add(1)*insertSpan
	return newWriteGen(seed, client, clients, base)
}

func (s *sqlSystem) call(_ int, o op) (any, error) {
	switch o.kind {
	case opPoint:
		return s.svc.Query("SELECT v FROM kv WHERE k = ?", tsql.Int(o.key))
	case opScan:
		return s.svc.Query("SELECT k, v FROM kv WHERE k >= ? AND k < ? ORDER BY k", tsql.Int(o.key), tsql.Int(o.hi))
	case opUpdate:
		return s.svc.Exec("UPDATE kv SET v = ?, h = ? WHERE k = ?", tsql.Text(o.val), tsql.Int(valueHash(o.val)), tsql.Int(o.key))
	case opInsert:
		return s.svc.Exec("INSERT INTO kv (k, v, h) VALUES (?, ?, ?)", tsql.Int(o.key), tsql.Text(o.val), tsql.Int(valueHash(o.val)))
	}
	return nil, fmt.Errorf("sql: unexpected op %v", o.kind)
}

// expect is the model's value of key as client c sees it. Clients read
// only ingested keys and keys they wrote themselves.
func (s *sqlSystem) expect(c int, key int64) (string, bool) {
	if v, ok := s.written[c][key]; ok {
		return v, true
	}
	if key >= 0 && key < tableRows {
		return rowValue(s.seed, key, 0), true
	}
	return "", false
}

func (s *sqlSystem) check(c int, o op, res any) error {
	switch o.kind {
	case opPoint:
		rows := res.(*tsql.Rows)
		want, _ := s.expect(c, o.key)
		if rows.Len() != 1 || !rows.Next() || rows.Row()[0].Text() != want {
			return fmt.Errorf("%w: point read of %d", errCheck, o.key)
		}
	case opScan:
		rows := res.(*tsql.Rows)
		if rows.Len() != int(o.hi-o.key) {
			return fmt.Errorf("%w: scan [%d,%d) returned %d rows", errCheck, o.key, o.hi, rows.Len())
		}
		for k := o.key; rows.Next(); k++ {
			want, _ := s.expect(c, k)
			if r := rows.Row(); r[0].Int() != k || r[1].Text() != want {
				return fmt.Errorf("%w: scan [%d,%d) at key %d", errCheck, o.key, o.hi, k)
			}
		}
	case opUpdate, opInsert:
		if n := res.(int64); n != 1 {
			return fmt.Errorf("%w: %v of %d affected %d rows", errCheck, o.kind, o.key, n)
		}
		s.written[c][o.key] = o.val
		s.userBytes.Add(rowBytes)
	}
	return nil
}

func (s *sqlSystem) class(o op) string { return o.kind.String() }

func (s *sqlSystem) close() error { return s.svc.Close() }

// model returns the expected live table: every ingested row, overridden
// or extended by the acknowledged writes.
func (s *sqlSystem) model() map[int64]string {
	m := make(map[int64]string, tableRows)
	for k := int64(0); k < tableRows; k++ {
		m[k] = rowValue(s.seed, k, 0)
	}
	for _, w := range s.written {
		for k, v := range w {
			m[k] = v
		}
	}
	return m
}

// reconcile compares COUNT(*), SUM(k) and SUM(h) over the whole table
// with the model.
func reconcile(svc *tsql.Service, model map[int64]string) error {
	var n, sumK, sumH int64
	for k, v := range model {
		n++
		sumK += k
		sumH += valueHash(v)
	}
	row, err := svc.QueryRow("SELECT COUNT(*), SUM(k), SUM(h) FROM kv")
	if err != nil {
		return fmt.Errorf("reconcile: %w", err)
	}
	if row == nil || row[0].Int() != n || row[1].Int() != sumK || row[2].Int() != sumH {
		return fmt.Errorf("%w: reconcile got %v, model (%d, %d, %d)", errCheck, row, n, sumK, sumH)
	}
	return nil
}

// durability closes the service, opens a fresh one over a copy of only
// the host bytes it left behind, and reads back every acknowledged write.
// It returns how many writes it checked and how many it did not find.
func (s *sqlSystem) durability() (checked, missed int64, err error) {
	if err := s.svc.Close(); err != nil {
		return 0, 0, fmt.Errorf("durability: close: %w", err)
	}
	host, err := copyFS(s.host)
	if err != nil {
		return 0, 0, fmt.Errorf("durability: %w", err)
	}
	svc, err := tsql.OpenService(sqlConfig(host, nil))
	if err != nil {
		return 0, 0, fmt.Errorf("durability: reopen: %w", err)
	}
	s.svc = svc
	for _, w := range s.written {
		for k, v := range w {
			checked++
			row, err := svc.QueryRow("SELECT v FROM kv WHERE k = ?", tsql.Int(k))
			if err != nil || row == nil || row[0].Text() != v {
				missed++
			}
		}
	}
	return checked, missed, nil
}

// copyFS copies every regular file of src's root directory into a fresh
// in-memory host.
func copyFS(src *hostfs.MemFS) (*hostfs.MemFS, error) {
	dst := hostfs.NewMemFS()
	infos, err := src.ReadDir("/")
	if err != nil {
		return nil, err
	}
	for _, fi := range infos {
		if fi.Type != hostfs.TypeRegular {
			continue
		}
		in, err := src.OpenFile(fi.Name, hostfs.ORead)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, fi.Size)
		_, rerr := in.ReadAt(buf, 0)
		in.Close()
		if rerr != nil {
			return nil, rerr
		}
		out, err := dst.OpenFile(fi.Name, hostfs.OWrite|hostfs.OCreate)
		if err != nil {
			return nil, err
		}
		_, werr := out.WriteAt(buf, 0)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
	}
	return dst, nil
}

func (s *sqlSystem) snap() *snap {
	sn := &snap{prof: s.prof.Snapshot(), svc: s.svc.Stats(), userBytes: s.userBytes.Load()}
	if s.tfs != nil {
		sn.fs = s.tfs.c.snap()
	}
	for i := 0; i < sqlShards; i++ {
		st := s.svc.Shard(i).Runtime().Enclave.Stats()
		sn.sgx.BatchedWakeups += st.BatchedWakeups
		sn.sgx.SwitchlessCalls += st.SwitchlessCalls
		sn.sgx.TCSWaits += st.TCSWaits
		sn.sgx.PageFaults += st.PageFaults
		sn.sgx.Evictions += st.Evictions
	}
	return sn
}

// storedPerUserByte is host bytes over the row bytes of the live table.
func (s *sqlSystem) storedPerUserByte() float64 {
	return ratio(float64(s.host.TotalBytes()), float64(len(s.model())*rowBytes))
}

func sqlSettings(r *result, write bool) {
	r.settings["table_rows"] = tableRows
	r.settings["row_bytes"] = rowBytes
	r.settings["table_bytes"] = tableRows * rowBytes
	r.settings["page_cache_kib_per_handle"] = sqlCacheKiB
	r.settings["shards"] = sqlShards
	r.settings["handles_per_shard"] = sqlReplicas
	r.settings["clients"] = clients
	r.settings["flush_policy"] = "group commit, opportunistic batches of up to 32; writers at SyncNormal"
	r.settings["heap_bytes"] = sqlSGX().HeapSize
	r.settings["epc_bytes"] = sqlSGX().EPCSize
	r.settings["epc_usable_bytes"] = sqlSGX().EPCUsable
	if write {
		r.settings["mix"] = "60% update of 200 hot keys, 20% insert, 20% read-your-writes point select"
	} else {
		r.settings["mix"] = "90% point select by uniform key, 10% select of 50 consecutive keys"
	}
}

// measureSQL is the untraced sql-read or sql-write run. After the timed
// phase it reconciles the table with the model and, for sql-write,
// checks that every acknowledged write survives a reopen.
func measureSQL(rc runConfig, write bool) (*result, error) {
	sys, setup, err := setupTimes(func() (system, error) { return buildSQL(false, write, rc.seed) })
	if err != nil {
		return nil, err
	}
	s := sys.(*sqlSystem)
	defer s.close()
	lr := closedLoop(s, rc.seed, clients, rc.phase(1), nil)
	res := newResult()
	res.attempted, res.failed, res.errs = lr.ops, lr.failed, lr.errs
	res.metrics["setup_s"] = setup
	res.metrics["ops_per_s"] = lr.opsPerSec()
	if err := latencyMetrics(res, lr); err != nil {
		return nil, err
	}
	res.metrics["max_rss_mib"] = maxRSSMiB()
	if write {
		classLatencies(res, "read", lr.class["point"])
		classLatencies(res, "write", lr.class["update"], lr.class["insert"])
	} else {
		classLatencies(res, "read", lr.class["point"])
		classLatencies(res, "scan", lr.class["scan"])
	}
	res.extra["stored_bytes_per_user_byte"] = s.storedPerUserByte()
	model := s.model()
	if err := reconcile(s.svc, model); err != nil {
		res.fail(1, "%v", err)
	}
	if write {
		checked, missed, err := s.durability()
		if err != nil {
			return nil, err
		}
		res.extra["durability_checked_writes"] = float64(checked)
		res.extra["durability_missed_writes"] = float64(missed)
		if missed > 0 {
			res.fail(missed, "durability: %d of %d acknowledged writes missing after reopen", missed, checked)
		}
	}
	sqlSettings(res, write)
	return res, nil
}

// traceSQL is the traced sql-read or sql-write run.
func traceSQL(rc runConfig, write bool) (*result, error) {
	t := tracedRun{
		rc: rc, phases: 3, n: clients,
		build: func(traced bool) (system, error) { return buildSQL(traced, write, rc.seed) },
		snap:  func(sys system) *snap { return sys.(*sqlSystem).snap() },
		chain: func(d delta, tr *tracer) layerChain {
			return layerChain{tr.op.us(), tr.api.us(), d.timerUS("litedb.exec"), d.timerUS("wasi.time"),
				d.b.boundaryUS() - d.a.boundaryUS(), float64(d.b.fs.busyNs-d.a.fs.busyNs) / 1e3}
		},
	}
	sys, lr, d, res, err := t.run()
	if err != nil {
		return nil, err
	}
	s := sys.(*sqlSystem)
	defer s.close()
	layerMetrics(res.metrics, d, float64(lr.ops), float64(d.b.userBytes-d.a.userBytes))
	if err := reconcile(s.svc, s.model()); err != nil {
		res.fail(1, "%v", err)
	}
	res.metrics["hostfs.stored_bytes_per_user_byte"] = s.storedPerUserByte()
	res.metrics["wasm.load_ms"] = ratio(float64(s.prof.Timer("twine.load").Nanoseconds())/1e6, sqlShards*sqlReplicas)
	res.metrics["core.resume_p50_us"] = 0
	res.metrics["core.compile_hits"] = 0
	sqlSettings(res, write)
	return res, nil
}
