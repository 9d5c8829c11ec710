package main

import (
	"os"
	"reflect"
	"testing"

	"rodentstore/internal/vfs"
)

// The wrapper must forward every vfs.File method to the file below it and
// count exactly what went through.
func TestCountFSForwardsAndCounts(t *testing.T) {
	for _, timed := range []bool{false, true} {
		inner := vfs.NewFault(1)
		var seen []vfs.OpKind
		inner.OnOp = func(op vfs.Op) { seen = append(seen, op.Kind) }
		var tr *tracer
		if timed {
			tr = newTracer()
		}
		fs := newCountFS(inner, tr)
		data, err := fs.OpenFile("db.rdnt", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		log, err := fs.OpenFile("db.rdnt.wal", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		for i := range buf {
			buf[i] = byte(i)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		_, err = data.WriteAt(buf, 0)
		must(err)
		_, err = data.WriteAt(buf[:50], 100)
		must(err)
		must(data.Sync())
		got := make([]byte, 40)
		_, err = data.ReadAt(got, 10)
		must(err)
		if !reflect.DeepEqual(got, buf[10:50]) {
			t.Fatal("ReadAt returned other bytes than were written")
		}
		must(data.Preallocate(4096))
		if size, err := data.Size(); err != nil || size != 4096 {
			t.Fatalf("Size after Preallocate = %d, %v", size, err)
		}
		must(data.Truncate(200))
		if size, err := data.Size(); err != nil || size != 200 {
			t.Fatalf("Size after Truncate = %d, %v", size, err)
		}
		_, err = log.WriteAt(buf[:7], 0)
		must(err)
		must(log.Sync())
		must(log.Sync())
		must(data.Close())
		must(log.Close())

		wantOps := []vfs.OpKind{vfs.OpWrite, vfs.OpWrite, vfs.OpSync, vfs.OpRead, vfs.OpPreallocate, vfs.OpTruncate, vfs.OpWrite, vfs.OpSync, vfs.OpSync}
		if !reflect.DeepEqual(seen, wantOps) {
			t.Errorf("timed=%v: the file below saw %v, want %v", timed, seen, wantOps)
		}
		d, l := fs.data.snapshot(), fs.log.snapshot()
		d.ReadBusy, d.WriteBusy, d.SyncBusy, l.ReadBusy, l.WriteBusy, l.SyncBusy = 0, 0, 0, 0, 0, 0
		if want := (ioSnapshot{ReadOps: 1, ReadBytes: 40, WriteOps: 2, WriteBytes: 150, Syncs: 1}); d != want {
			t.Errorf("timed=%v: page file counts %+v, want %+v", timed, d, want)
		}
		if want := (ioSnapshot{WriteOps: 1, WriteBytes: 7, Syncs: 2}); l != want {
			t.Errorf("timed=%v: log counts %+v, want %+v", timed, l, want)
		}
		must(fs.Remove("db.rdnt.wal"))
		if _, err := inner.OpenFile("db.rdnt.wal", os.O_RDWR, 0); err == nil {
			t.Error("Remove was not forwarded")
		}
	}
}

// Calls made while a probe span is open become its children; calls outside
// one are only counted.
func TestCountFSRecordsSpansUnderProbes(t *testing.T) {
	tr := newTracer()
	fs := newCountFS(vfs.NewFault(1), tr)
	f, err := fs.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if n := tr.mark(); n != 0 {
		t.Fatalf("%d spans recorded outside a probe", n)
	}
	sp := tr.begin("pager", "probe")
	if _, err := f.ReadAt(make([]byte, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sp.end()
	spans := tr.spansSince(0)
	if len(spans) != 3 || spans[0].Name != "ReadAt" || spans[1].Name != "Sync" || spans[0].Parent != spans[2].ID {
		t.Fatalf("spans: %+v", spans)
	}
}
