package main

import (
	"math/rand"
	"strconv"
)

// opKind names the operation classes of all three workloads.
type opKind uint8

const (
	opPoint  opKind = iota // sql-*: SELECT one row by key
	opScan                 // sql-read: SELECT a key range across both shards
	opUpdate               // sql-write: UPDATE one hot row
	opInsert               // sql-write: INSERT one new row
	opServe                // serve: one request to one tenant
)

var opNames = [...]string{"point", "scan", "update", "insert", "serve"}

func (k opKind) String() string { return opNames[k] }

// op is one generated operation. Which fields are set depends on kind.
type op struct {
	kind   opKind
	key    int64  // row key, or first key of a scan
	hi     int64  // scan: one past the last key
	val    string // update/insert: the row's new value
	tenant int    // serve: tenant index
	arg    uint64 // serve: the request argument
}

// opGen yields one client's operation stream. Streams are a pure function
// of (seed, client): the program under test sees only the generated ops.
type opGen interface{ next() op }

// mix64 is the SplitMix64 finaliser, used to derive independent
// generator seeds and row contents from the run seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*31 + uint64(client) + 1))))
}

// rowValue is the deterministic text stored for key at version ver:
// valueBytes characters, so a row with its 8-byte key is about 100 bytes.
func rowValue(seed, key int64, ver int) string {
	b := make([]byte, 0, valueBytes)
	b = strconv.AppendInt(b, key, 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(ver), 10)
	b = append(b, '.')
	x := mix64(uint64(seed) ^ mix64(uint64(key)<<20|uint64(ver)))
	for len(b) < valueBytes {
		x = mix64(x)
		b = append(b, 'a'+byte(x%26))
	}
	return string(b)
}

// readGen is the sql-read mix: 90% point reads by uniform key, 10% scans
// of scanWidth consecutive keys.
type readGen struct {
	r    *rand.Rand
	rows int64
}

func newReadGen(seed int64, client int) *readGen {
	return &readGen{r: clientRand(seed, client), rows: tableRows}
}

func (g *readGen) next() op {
	if g.r.Intn(10) == 0 {
		lo := g.r.Int63n(g.rows - scanWidth)
		return op{kind: opScan, key: lo, hi: lo + scanWidth}
	}
	return op{kind: opPoint, key: g.r.Int63n(g.rows)}
}

// writeGen is the sql-write mix for one client: 60% UPDATE of one of the
// client's hot keys, 20% INSERT of a new key, 20% point read of the key
// the client wrote last. Clients own disjoint keys (hot keys are striped
// by client, and new keys come from insBase upward, a range no other
// generator of the run uses), so every read has one expected answer
// however the clients interleave.
type writeGen struct {
	r       *rand.Rand
	seed    int64
	hot     []int64
	nextIns int64
	last    int64
	ver     map[int64]int
}

func newWriteGen(seed int64, client, clients int, insBase int64) *writeGen {
	g := &writeGen{
		r:       clientRand(seed, client),
		seed:    seed,
		nextIns: insBase,
		last:    -1,
		ver:     make(map[int64]int),
	}
	for k := int64(client); k < hotKeys; k += int64(clients) {
		g.hot = append(g.hot, k)
	}
	return g
}

func (g *writeGen) next() op {
	x := g.r.Intn(10)
	switch {
	case x >= 8 && g.last >= 0:
		return op{kind: opPoint, key: g.last}
	case x >= 6 && x < 8:
		k := g.nextIns
		g.nextIns++
		g.ver[k] = 1
		g.last = k
		return op{kind: opInsert, key: k, val: rowValue(g.seed, k, 1)}
	}
	k := g.hot[g.r.Intn(len(g.hot))]
	g.ver[k]++
	g.last = k
	return op{kind: opUpdate, key: k, val: rowValue(g.seed, k, g.ver[k])}
}

// serveGen is the serve schedule: 80% of requests go to the hot fifth of
// the tenants, 20% to the rest, each with a seeded argument.
type serveGen struct {
	r *rand.Rand
}

func newServeGen(seed int64, client int) *serveGen {
	return &serveGen{r: clientRand(seed, client)}
}

func (g *serveGen) next() op {
	t := g.r.Intn(serveHot)
	if g.r.Intn(5) == 4 {
		t = serveHot + g.r.Intn(serveTenants-serveHot)
	}
	return op{kind: opServe, tenant: t, arg: uint64(g.r.Intn(serveArgs))}
}
