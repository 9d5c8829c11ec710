package main

import (
	"os"
	"strings"
	"sync/atomic"
	"time"

	"rodentstore/internal/vfs"
)

// ioCounts is what the wrapper sees of one class of file. Counts are always
// kept (atomic adds, no clock); the busy times only by the timing variant.
type ioCounts struct {
	readOps, readBytes   atomic.Int64
	writeOps, writeBytes atomic.Int64
	syncs                atomic.Int64
	readBusy, writeBusy  atomic.Int64 // nanoseconds
	syncBusy             atomic.Int64
}

// ioSnapshot is a plain copy of ioCounts, for taking deltas.
type ioSnapshot struct {
	ReadOps, ReadBytes, WriteOps, WriteBytes, Syncs int64
	ReadBusy, WriteBusy, SyncBusy                   time.Duration
}

func (c *ioCounts) snapshot() ioSnapshot {
	return ioSnapshot{
		ReadOps: c.readOps.Load(), ReadBytes: c.readBytes.Load(),
		WriteOps: c.writeOps.Load(), WriteBytes: c.writeBytes.Load(),
		Syncs:    c.syncs.Load(),
		ReadBusy: time.Duration(c.readBusy.Load()), WriteBusy: time.Duration(c.writeBusy.Load()),
		SyncBusy: time.Duration(c.syncBusy.Load()),
	}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{
		a.ReadOps - b.ReadOps, a.ReadBytes - b.ReadBytes, a.WriteOps - b.WriteOps, a.WriteBytes - b.WriteBytes, a.Syncs - b.Syncs,
		a.ReadBusy - b.ReadBusy, a.WriteBusy - b.WriteBusy, a.SyncBusy - b.SyncBusy,
	}
}

// countFS wraps a vfs.FS at the seam every byte the engine reads or writes
// crosses. It is passed as Options.FS in every run, so the counts cost the
// same on both sides of a comparison. Files whose name ends in ".wal" are
// counted as the log, everything else as the page file. With tr set (the
// traced run) every call is also timed, and calls made while a probe span is
// open are recorded as that span's children.
type countFS struct {
	inner vfs.FS
	tr    *tracer
	data  ioCounts
	log   ioCounts
}

func newCountFS(inner vfs.FS, tr *tracer) *countFS { return &countFS{inner: inner, tr: tr} }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	counts := &c.data
	if strings.HasSuffix(name, ".wal") {
		counts = &c.log
	}
	return &countFile{inner: f, c: counts, tr: c.tr}, nil
}

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

type countFile struct {
	inner vfs.File
	c     *ioCounts
	tr    *tracer
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.c.readOps.Add(1)
	if f.tr == nil {
		n, err := f.inner.ReadAt(p, off)
		f.c.readBytes.Add(int64(n))
		return n, err
	}
	start := time.Now()
	n, err := f.inner.ReadAt(p, off)
	end := time.Now()
	f.c.readBytes.Add(int64(n))
	f.c.readBusy.Add(int64(end.Sub(start)))
	f.tr.leaf("vfs", "ReadAt", start, end)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.writeOps.Add(1)
	if f.tr == nil {
		n, err := f.inner.WriteAt(p, off)
		f.c.writeBytes.Add(int64(n))
		return n, err
	}
	start := time.Now()
	n, err := f.inner.WriteAt(p, off)
	end := time.Now()
	f.c.writeBytes.Add(int64(n))
	f.c.writeBusy.Add(int64(end.Sub(start)))
	f.tr.leaf("vfs", "WriteAt", start, end)
	return n, err
}

func (f *countFile) Sync() error {
	f.c.syncs.Add(1)
	if f.tr == nil {
		return f.inner.Sync()
	}
	start := time.Now()
	err := f.inner.Sync()
	end := time.Now()
	f.c.syncBusy.Add(int64(end.Sub(start)))
	f.tr.leaf("vfs", "Sync", start, end)
	return err
}

func (f *countFile) Truncate(size int64) error    { return f.inner.Truncate(size) }
func (f *countFile) Preallocate(size int64) error { return f.inner.Preallocate(size) }
func (f *countFile) Size() (int64, error)         { return f.inner.Size() }
func (f *countFile) Close() error                 { return f.inner.Close() }
