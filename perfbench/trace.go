package main

import (
	"sync/atomic"
	"time"

	"twine/internal/hostfs"
)

// spanAgg aggregates the spans of one layer: how many were recorded and
// their summed duration. Spans are aggregated as they close rather than
// kept one by one, so a traced run's memory does not grow with its
// length.
type spanAgg struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *spanAgg) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(d.Nanoseconds())
}

func (a *spanAgg) us() float64 { return float64(a.ns.Load()) / 1e3 }

// tracer holds the spans the benchmark records from its own code: the
// root span of each op (generation, the call, the answer check) and the
// span of the public API call inside it. A nil *tracer records nothing,
// which is how untraced runs are measured.
type tracer struct {
	op  spanAgg
	api spanAgg
}

// record closes one op's spans.
func (t *tracer) record(opStart, apiStart, apiEnd, opEnd time.Time) {
	if t == nil {
		return
	}
	t.op.add(opEnd.Sub(opStart))
	t.api.add(apiEnd.Sub(apiStart))
}

// fsCounters is what the timing host file system records: calls, time
// busy inside the wrapped FS, and bytes moved in each direction.
type fsCounters struct {
	calls, busyNs, readBytes, writeBytes atomic.Int64
}

func (c *fsCounters) done(start time.Time) {
	c.calls.Add(1)
	c.busyNs.Add(time.Since(start).Nanoseconds())
}

// fsSnap is a point-in-time copy of fsCounters.
type fsSnap struct{ calls, busyNs, readBytes, writeBytes int64 }

func (c *fsCounters) snap() fsSnap {
	return fsSnap{c.calls.Load(), c.busyNs.Load(), c.readBytes.Load(), c.writeBytes.Load()}
}

func (a fsSnap) sub(b fsSnap) fsSnap {
	return fsSnap{a.calls - b.calls, a.busyNs - b.busyNs, a.readBytes - b.readBytes, a.writeBytes - b.writeBytes}
}

// timingFS is the untrusted storage the traced runs inject: every call
// into the wrapped hostfs.FS, and into the files it opens, is counted and
// timed. It changes no bytes and no errors.
type timingFS struct {
	fs hostfs.FS
	c  *fsCounters
}

func newTimingFS(fs hostfs.FS) *timingFS { return &timingFS{fs: fs, c: new(fsCounters)} }

func (t *timingFS) OpenFile(name string, flag int) (hostfs.File, error) {
	defer t.c.done(time.Now())
	f, err := t.fs.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, c: t.c}, nil
}

func (t *timingFS) Mkdir(name string) error {
	defer t.c.done(time.Now())
	return t.fs.Mkdir(name)
}

func (t *timingFS) Remove(name string) error {
	defer t.c.done(time.Now())
	return t.fs.Remove(name)
}

func (t *timingFS) Rename(oldName, newName string) error {
	defer t.c.done(time.Now())
	return t.fs.Rename(oldName, newName)
}

func (t *timingFS) Stat(name string) (hostfs.FileInfo, error) {
	defer t.c.done(time.Now())
	return t.fs.Stat(name)
}

func (t *timingFS) Lstat(name string) (hostfs.FileInfo, error) {
	defer t.c.done(time.Now())
	return t.fs.Lstat(name)
}

func (t *timingFS) ReadDir(name string) ([]hostfs.FileInfo, error) {
	defer t.c.done(time.Now())
	return t.fs.ReadDir(name)
}

func (t *timingFS) Symlink(target, link string) error {
	defer t.c.done(time.Now())
	return t.fs.Symlink(target, link)
}

func (t *timingFS) Readlink(name string) (string, error) {
	defer t.c.done(time.Now())
	return t.fs.Readlink(name)
}

func (t *timingFS) Link(oldName, newName string) error {
	defer t.c.done(time.Now())
	return t.fs.Link(oldName, newName)
}

func (t *timingFS) UTimes(name string, atime, mtime time.Time) error {
	defer t.c.done(time.Now())
	return t.fs.UTimes(name, atime, mtime)
}

type timingFile struct {
	f hostfs.File
	c *fsCounters
}

func (t *timingFile) ReadAt(p []byte, off int64) (int, error) {
	defer t.c.done(time.Now())
	n, err := t.f.ReadAt(p, off)
	t.c.readBytes.Add(int64(n))
	return n, err
}

func (t *timingFile) WriteAt(p []byte, off int64) (int, error) {
	defer t.c.done(time.Now())
	n, err := t.f.WriteAt(p, off)
	t.c.writeBytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Truncate(size int64) error {
	defer t.c.done(time.Now())
	return t.f.Truncate(size)
}

func (t *timingFile) Sync() error {
	defer t.c.done(time.Now())
	return t.f.Sync()
}

func (t *timingFile) Stat() (hostfs.FileInfo, error) {
	defer t.c.done(time.Now())
	return t.f.Stat()
}

func (t *timingFile) Close() error {
	defer t.c.done(time.Now())
	return t.f.Close()
}

// hostWriter is the host side of a guest's stdout on serve: fd_write's
// bytes land here, outside the enclave. It counts them for the answer
// check, and in traced runs also times each write as the host-I/O leaf of
// the serve path.
type hostWriter struct {
	timed bool
	c     fsCounters
}

func (w *hostWriter) Write(p []byte) (int, error) {
	if w.timed {
		defer w.c.done(time.Now())
	}
	w.c.writeBytes.Add(int64(len(p)))
	return len(p), nil
}
