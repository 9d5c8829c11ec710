// Package wal implements RodentStore's write-ahead log. The paper's first
// motivation (§1) is that each new storage system duplicates "transaction,
// lock, and memory management facilities"; RodentStore provides them once,
// under every layout the algebra can express.
//
// The log is redo-only and logical: a writer applies its pages to the main
// page file in place, then appends one frame describing what it applied — a
// durable insert's tail, with the bytes of its segment streams — and waits
// for the fsync (see package txn). A frame is its own commit: its checksum
// covers all of it, so a crash leaves it intact or torn, never half there.
// Frames name no page: recovery hands the payload of every intact tail
// frame, in log order, to a callback that decides where it goes. After a
// checkpoint (all applied pages durable) the log is truncated.
//
// One frame walker reads the log from its start and stops at the first torn
// or corrupt frame: Open finds the logical end with it, Replay applies what
// it yields, and Verify reports what lies past the point where it stopped.
//
// Two mechanisms keep the append path cheap under concurrency:
//
//   - Appends are encoded into a pending in-memory buffer under the log
//     mutex and written to the file in one positional write when durability
//     is requested — a commit is a single write syscall, and the encode path
//     reuses the buffer's capacity instead of allocating per record.
//
//   - Sync implements group commit: durability waits on a shared ticket.
//     One caller becomes the sync leader, flushes the pending buffer and
//     issues the fsync; every commit that was appended while the previous
//     fsync was in flight is absorbed by the same fsync. Under W concurrent
//     committers one disk sync acknowledges up to W commits.
//
// # The fsyncgate rule
//
// A failed fsync is treated as fatal for the log's file descriptor. On
// Linux (and others), a failed fsync may mark the dirty pages clean without
// having written them, so a retried fsync can report success while the data
// never reached disk — the failure mode that cost PostgreSQL acknowledged
// transactions ("fsyncgate", 2018). The log therefore latches the first
// sync failure as ErrSyncFailed: every subsequent Sync returns
// it without touching the file, no commit is ever acknowledged on a retried
// fsync, and the only way forward is to close and reopen the log, which
// re-reads the durable prefix from disk and re-establishes a truthful
// logical end.
package wal

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
	"rodentstore/internal/vfs"
)

// ErrSyncFailed is the latched, typed form of the log's first fsync (or
// append-write) failure. It wraps the first cause — later callers inspect
// it with errors.As/Is — and means the log accepts no further durability
// requests until it is reopened; see "The fsyncgate rule" above.
type ErrSyncFailed struct {
	Cause error
}

func (e *ErrSyncFailed) Error() string {
	return fmt.Sprintf("wal: sync failed, log unusable until reopen: %v", e.Cause)
}

func (e *ErrSyncFailed) Unwrap() error { return e.Cause }

// ErrCorruptRecord reports a structurally corrupt record frame that is NOT
// a plain crash tail: well-formed records exist beyond it, so the log lost
// data in its middle (media corruption, not a torn append). Recovery still
// applies the torn-tail rule — everything from Off on is ignored — but
// integrity checks surface this loudly because committed transactions after
// Off are silently dropped by that rule.
type ErrCorruptRecord struct {
	Off    int64 // byte offset of the corrupt frame
	Detail string
}

func (e *ErrCorruptRecord) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Off, e.Detail)
}

// RecordType tags log records.
type RecordType uint8

const (
	// RecPageImage is written only by benchmark/probes.go, to time page-sized appends.
	RecPageImage RecordType = 2
	// RecCommit is written only by benchmark/probes.go, to close a timed
	// round. Logs written when a commit was a begin/tail/commit group hold
	// it too (beside begin frames, type 1); Replay skips both.
	RecCommit RecordType = 3
	// RecTail carries one durable insert's tail record (opaque here: the
	// catalog encodes and replays it). An intact one is committed.
	RecTail RecordType = 6
)

// Record is one log entry.
type Record struct {
	Type  RecordType
	TxnID uint64
	// PageID is framed but unused by the engine; only benchmark/probes.go sets it.
	PageID  pager.PageID
	Payload []byte
}

// Framing: [body length u32][crc32 of body u32][body], where the body is
// [type u8][txn u64][page u64][payload].
const (
	frameHeader = 8
	bodyHeader  = 17
)

// defaultBufCap pre-sizes the pending append buffer so a small commit
// (records for about one page of payload) encodes without growing it.
const defaultBufCap = 4096

// preallocBytes is the physical space kept allocated ahead of the append
// cursor. Appends into preallocated blocks make the commit fsync a pure
// data sync (no block-allocation or size-change metadata in the journal),
// which is most of its cost on ext4. The file's size is therefore larger
// than its logical content; Open finds the logical end with the frame
// walker.
const preallocBytes = 4 << 20

// Log is an append-only record file. Methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    vfs.File
	size int64  // bytes written to the file (excludes wbuf)
	wbuf []byte // encoded records not yet written to the file
	seq  uint64 // append ticket: incremented once per Append

	// Group-commit state. Lock order: mu may be held when taking gmu
	// (Truncate does), but gmu is never held while taking mu — the sync
	// leader takes them strictly in sequence.
	gmu     sync.Mutex
	gcond   *sync.Cond
	syncing bool   // a leader's fsync is in flight
	synced  uint64 // highest append ticket known durable
	// syncErr latches the first fsync failure as *ErrSyncFailed (see "The
	// fsyncgate rule" in the package comment); once set, every Sync fails
	// until the log is reopened.
	syncErr *ErrSyncFailed

	// fsyncs counts physical fsync calls (one per group-commit leader);
	// comparing it with the number of commits shows the amortization.
	fsyncs atomic.Uint64
}

// Fsyncs returns the number of physical fsync calls issued so far. With
// group commit, concurrent committers share leaders' fsyncs, so this grows
// more slowly than the commit count.
//
//lint:allow deadexport group-commit tests count the fsyncs that commits share
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// Open opens (or creates) the log at path on the OS file system.
func Open(path string) (*Log, error) {
	return OpenAt(vfs.OS, path)
}

// OpenAt opens (or creates) the log at path on the given file system. Its
// logical end is where the frame walk stops; the next append overwrites
// whatever lies beyond (preallocated zeros, or a crash's torn frame).
func OpenAt(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Size()
	w := newWalker(f, size)
	for err == nil && w.next() {
	}
	if err = cmp.Or(err, w.err); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	l := &Log{f: f, size: w.off, wbuf: make([]byte, 0, defaultBufCap)}
	l.gcond = sync.NewCond(&l.gmu)
	// Best effort: without preallocation the log still works, each fsync
	// just pays the journal metadata cost.
	_ = f.Preallocate(max(preallocBytes, w.off))
	return l, nil
}

// walker reads frames in order from the start of r, reusing one body
// buffer, and stops at the first frame that is cut off or fails its
// checksum: the torn-tail rule. Over a file it reads incrementally, so
// walking a log never holds it in memory, nor its preallocated space.
type walker struct {
	r    io.Reader
	size int64 // bytes the walk may read
	off  int64 // end of the last intact frame: the logical end once next is false
	hdr  [frameHeader]byte
	body []byte
	rec  Record // the frame next yielded; Payload aliases body
	err  error  // a read failure, as opposed to the end of the frames
}

// newWalker walks the first size bytes of f, reading up to 64 KiB at a time.
func newWalker(f vfs.File, size int64) *walker {
	return &walker{r: bufio.NewReaderSize(io.NewSectionReader(f, 0, size), int(min(size, 64<<10))), size: size}
}

// next reads the frame at w.off into w.rec and reports whether it is intact.
func (w *walker) next() bool {
	if w.off+frameHeader > w.size {
		return false
	}
	if _, w.err = io.ReadFull(w.r, w.hdr[:]); w.err != nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(w.hdr[:]))
	if n < bodyHeader || w.off+frameHeader+n > w.size {
		return false
	}
	w.body = slices.Grow(w.body[:0], int(n))[:n]
	if _, w.err = io.ReadFull(w.r, w.body); w.err != nil {
		return false
	}
	if crc32.ChecksumIEEE(w.body) != binary.LittleEndian.Uint32(w.hdr[4:]) {
		return false
	}
	w.off += frameHeader + n
	w.rec = Record{
		Type:    RecordType(w.body[0]),
		TxnID:   binary.LittleEndian.Uint64(w.body[1:]),
		PageID:  pager.PageID(binary.LittleEndian.Uint64(w.body[9:])),
		Payload: w.body[bodyHeader:],
	}
	return true
}

// Append encodes one record into the pending buffer (not yet on disk; call
// Sync for durability).
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := len(l.wbuf)
	l.wbuf = append(l.wbuf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	l.wbuf = append(l.wbuf, byte(r.Type))
	l.wbuf = binary.LittleEndian.AppendUint64(l.wbuf, r.TxnID)
	l.wbuf = binary.LittleEndian.AppendUint64(l.wbuf, uint64(r.PageID))
	l.wbuf = append(l.wbuf, r.Payload...)
	body := l.wbuf[off+frameHeader:]
	binary.LittleEndian.PutUint32(l.wbuf[off:], uint32(len(body)))
	binary.LittleEndian.PutUint32(l.wbuf[off+4:], crc32.ChecksumIEEE(body))
	l.seq++
	return nil
}

// flushBufLocked writes the pending buffer to the file in one positional
// write. Caller holds l.mu.
func (l *Log) flushBufLocked() error {
	if len(l.wbuf) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.wbuf, l.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(l.wbuf))
	l.wbuf = l.wbuf[:0]
	return nil
}

// Sync makes every record appended so far durable, using group commit: if
// another caller's fsync is already in flight, this caller waits for the
// next round and shares its fsync with every other waiter instead of
// issuing one of its own. At most one fsync is in flight at a time; each
// covers every record appended before it started.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.seq // the ticket of the caller's last Append
	l.mu.Unlock()
	l.gmu.Lock()
	for {
		if err := l.syncErr; err != nil {
			l.gmu.Unlock()
			return err
		}
		if l.synced >= seq {
			l.gmu.Unlock()
			return nil
		}
		if !l.syncing {
			break // become this round's leader
		}
		l.gcond.Wait()
	}
	l.syncing = true
	l.gmu.Unlock()

	// Leader: write out the pending buffer, note the highest ticket the
	// fsync will cover, then sync. Appends that land during the fsync are
	// not covered (they stay in the buffer for the next round).
	l.mu.Lock()
	top := l.seq
	err := l.flushBufLocked()
	l.mu.Unlock()
	if err == nil {
		l.fsyncs.Add(1)
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: sync: %w", serr)
		}
	}

	l.gmu.Lock()
	l.syncing = false
	if err == nil {
		if top > l.synced {
			l.synced = top
		}
	} else {
		if l.syncErr == nil {
			l.syncErr = &ErrSyncFailed{Cause: err} // latch: no retries on this fd
		}
		err = l.syncErr // leader and waiters surface the same typed error
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return err
}

// Truncate empties the log (after a checkpoint).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	_ = l.f.Preallocate(preallocBytes) // fresh zeroed append space
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync after truncate: %w", err)
	}
	l.size = 0
	l.wbuf = l.wbuf[:0]
	// Everything appended so far is gone; no ticket can still want it.
	top := l.seq
	l.gmu.Lock()
	if top > l.synced {
		l.synced = top
	}
	l.gmu.Unlock()
	return nil
}

// Size returns the current log size in bytes, counting records still in the
// pending buffer.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.wbuf))
}

// Close flushes the pending buffer and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	err := l.flushBufLocked()
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// VerifyReport summarizes a structural walk of the log file.
type VerifyReport struct {
	// Records is the number of well-formed frames from the start.
	Records int
	// LogicalEnd is where they stop.
	LogicalEnd int64
	// TailBytes is how many non-zero bytes follow LogicalEnd — a crash tail
	// recovery ignores by the torn-tail rule. Nonzero is unremarkable after
	// a crash; it only means the last append never reached the disk whole.
	TailBytes int
}

// Verify walks the log's frames as Replay does and reports its structure,
// and what lies past the point where the walk stops. It returns an
// *ErrCorruptRecord only for mid-log corruption: a well-formed frame found
// beyond the point where the frame walk stopped, which means the torn-tail
// rule is silently dropping committed records. (A plain torn tail — garbage
// with nothing valid after it — is normal crash residue and is reported in
// the VerifyReport, not as an error.)
func (l *Log) Verify() (VerifyReport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rep VerifyReport
	if err := l.flushBufLocked(); err != nil {
		return rep, err
	}
	fileSize, err := l.f.Size()
	if err != nil {
		return rep, fmt.Errorf("wal: verify: %w", err)
	}
	w := newWalker(l.f, l.size)
	for w.next() {
		rep.Records++
	}
	if w.err != nil {
		return rep, fmt.Errorf("wal: verify read: %w", w.err)
	}
	rep.LogicalEnd = w.off
	// Past the logical end lie preallocated zeros, or a crash's torn append.
	// A single torn append leaves nothing parseable behind it, so a
	// well-formed frame at any later offset means the corruption is
	// mid-log. The region is read a chunk at a time through one buffer,
	// with a frame header of lookahead; a chunk of zeros holds no frame
	// header (a length is at least bodyHeader) and is not probed. The
	// search is bounded to probeSpan: this is an integrity check, not a
	// recovery path.
	buf := make([]byte, min(verifyChunk, fileSize-w.off)+frameHeader)
	var scratch []byte
	found := int64(-1)
	for off := w.off; off < fileSize; off += verifyChunk {
		b := buf[:min(int64(len(buf)), fileSize-off)]
		n, err := l.f.ReadAt(b, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return rep, fmt.Errorf("wal: verify read: %w", err)
		}
		b = b[:n]
		chunk := b[:min(n, verifyChunk)]
		rep.TailBytes += len(chunk) - bytes.Count(chunk, []byte{0})
		if found >= 0 || bytes.Count(b, []byte{0}) == len(b) {
			continue
		}
		for i := range chunk {
			cand := off + int64(i)
			if cand-w.off+frameHeader > probeSpan || i+frameHeader > len(b) {
				break
			}
			if cand == w.off {
				continue
			}
			ok, err := l.frameAt(b[i:], cand, fileSize, &scratch)
			if err != nil {
				return rep, fmt.Errorf("wal: verify read: %w", err)
			}
			if ok {
				found = cand
				break
			}
		}
	}
	if found >= 0 {
		return rep, &ErrCorruptRecord{
			Off:    w.off,
			Detail: fmt.Sprintf("well-formed record at offset %d beyond corrupt region; committed records are being dropped", found),
		}
	}
	return rep, nil
}

// verifyChunk is how much of the region past the logical end Verify reads
// at a time, and probeSpan how far past the logical end it looks for a
// well-formed frame.
const (
	verifyChunk = 32 << 10
	probeSpan   = 1 << 20
)

// frameAt reports whether a well-formed frame ending by end starts at off,
// where b holds the file's bytes from off on (at least a frame header). A
// body b does not hold is read in pieces through *scratch.
func (l *Log) frameAt(b []byte, off, end int64, scratch *[]byte) (bool, error) {
	n := int64(binary.LittleEndian.Uint32(b))
	if n < bodyHeader || off+frameHeader+n > end {
		return false, nil
	}
	want := binary.LittleEndian.Uint32(b[4:])
	body := b[frameHeader:]
	if int64(len(body)) >= n {
		return crc32.ChecksumIEEE(body[:n]) == want, nil
	}
	crc := crc32.ChecksumIEEE(body)
	if *scratch == nil {
		*scratch = make([]byte, verifyChunk)
	}
	for pos, stop := off+frameHeader+int64(len(body)), off+frameHeader+n; pos < stop; {
		piece := (*scratch)[:min(int64(len(*scratch)), stop-pos)]
		if _, err := l.f.ReadAt(piece, pos); err != nil {
			return false, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, piece)
		pos += int64(len(piece))
	}
	return crc == want, nil
}

// Replay walks the log and calls apply with the payload and id of every
// intact RecTail frame, in log order, skipping frames of other types. It
// returns the number of tail frames applied. payload is valid only during
// the call: apply must copy what it keeps.
func (l *Log) Replay(apply func(txn uint64, payload []byte) error) (int, error) {
	l.mu.Lock()
	err := l.flushBufLocked()
	size := l.size
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// The logical log is [0, size); beyond it lies preallocated append
	// space, or an abandoned tail the next append overwrites.
	w := newWalker(l.f, size)
	replayed := 0
	for w.next() {
		if w.rec.Type != RecTail {
			continue
		}
		if err := apply(w.rec.TxnID, w.rec.Payload); err != nil {
			return replayed, fmt.Errorf("wal: replay txn %d: %w", w.rec.TxnID, err)
		}
		replayed++
	}
	if w.err != nil {
		return replayed, fmt.Errorf("wal: read: %w", w.err)
	}
	return replayed, nil
}
