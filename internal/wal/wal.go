// Package wal implements RodentStore's write-ahead log. The paper's first
// motivation (§1) is that each new storage system duplicates "transaction,
// lock, and memory management facilities"; RodentStore provides them once,
// under every layout the algebra can express.
//
// The log is redo-only and logical: a writer applies its pages to the main
// page file in place, then appends one record describing what it applied —
// a durable insert's tail, with the bytes of its segment streams — as a
// committed record group, and waits for the fsync (see package txn).
// Records name no page: recovery hands each committed payload, in log
// order, to a callback that decides where it goes; uncommitted groups are
// ignored. After a checkpoint (all applied pages durable) the log is
// truncated.
//
// Two mechanisms keep the append path cheap under concurrency:
//
//   - Appends are encoded into a pending in-memory buffer under the log
//     mutex and written to the file in one positional write when durability
//     is requested — a commit (begin + tail + commit) is a single
//     write syscall, and the encode path reuses the buffer's capacity
//     instead of allocating per record.
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
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	// RecBegin marks the start of a transaction.
	RecBegin RecordType = 1
	// RecPageImage is written only by benchmark/probes.go, to time page-sized appends.
	RecPageImage RecordType = 2
	// RecCommit marks a transaction durable; its records must be replayed.
	RecCommit RecordType = 3
	// RecTail carries one durable insert's tail record (opaque here: the
	// catalog encodes and replays it); Replay hands committed ones over in
	// log order.
	RecTail RecordType = 6
)

// Record is one log entry.
type Record struct {
	Type  RecordType
	TxnID uint64
	// PageID is framed but unused by the engine; benchmark/probes.go sets it.
	PageID  pager.PageID
	Payload []byte
}

// defaultBufCap pre-sizes the pending append buffer so a small commit
// (records for about one page of payload) encodes without growing it.
const defaultBufCap = 4096

// preallocBytes is the physical space kept allocated ahead of the append
// cursor. Appends into preallocated blocks make the commit fsync a pure
// data sync (no block-allocation or size-change metadata in the journal),
// which is most of its cost on ext4. The file's size is therefore larger
// than its logical content; Open finds the logical end by scanning record
// frames (the same torn-tail rule Scan applies).
const preallocBytes = 4 << 20

// Log is an append-only record file. Methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    vfs.File
	path string
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

// OpenAt opens (or creates) the log at path on the given file system.
func OpenAt(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := logicalSize(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	l := &Log{f: f, path: path, size: size, wbuf: make([]byte, 0, defaultBufCap)}
	l.gcond = sync.NewCond(&l.gmu)
	// Best effort: without preallocation the log still works, each fsync
	// just pays the journal metadata cost.
	prealloc := int64(preallocBytes)
	if size > prealloc {
		prealloc = size
	}
	_ = f.Preallocate(prealloc)
	return l, nil
}

// logicalSize walks well-formed record frames from the start and returns
// the offset where they stop — the log's logical end, which is shorter than
// the file when space is preallocated (or when a crash left a torn tail;
// the next append overwrites it, matching Scan's recovery rule). It reads
// incrementally and stops at the first bad frame, so opening a log never
// reads the (mostly zero) preallocated region into memory.
func logicalSize(f vfs.File) (int64, error) {
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	var off int64
	var hdr [8]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or short header: logical end
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		// A length past the file's end is crash garbage, not a record to
		// buffer.
		if n < 17 || off+8+int64(n) > size {
			return off, nil
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil // torn tail
		}
		if crc32.ChecksumIEEE(body) != crc {
			return off, nil // corrupt tail
		}
		off += int64(8 + n)
	}
}

// Append encodes one record into the pending buffer (not yet on disk; call
// Sync for durability).
// Framing: [total u32][crc u32][type u8][txn u64][page u64][payload].
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := len(l.wbuf)
	l.wbuf = append(l.wbuf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	l.wbuf = append(l.wbuf, byte(r.Type))
	l.wbuf = binary.LittleEndian.AppendUint64(l.wbuf, r.TxnID)
	l.wbuf = binary.LittleEndian.AppendUint64(l.wbuf, uint64(r.PageID))
	l.wbuf = append(l.wbuf, r.Payload...)
	body := l.wbuf[off+8:]
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

// Scan reads all well-formed records from the start of the log, stopping
// silently at the first torn or corrupt record (the crash tail).
func (l *Log) Scan() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushBufLocked(); err != nil {
		return nil, err
	}
	// The logical log is [0, l.size); anything beyond is preallocated
	// append space (or a previously abandoned tail the next append will
	// overwrite), which the frame walk would stop at anyway.
	data := make([]byte, l.size)
	if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, l.size), data); err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	var out []Record
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 17 || off+8+n > len(data) {
			break // torn tail
		}
		body := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != crc {
			break // corrupt tail
		}
		rec := Record{
			Type:   RecordType(body[0]),
			TxnID:  binary.LittleEndian.Uint64(body[1:]),
			PageID: pager.PageID(binary.LittleEndian.Uint64(body[9:])),
		}
		if len(body) > 17 {
			rec.Payload = append([]byte(nil), body[17:]...)
		}
		out = append(out, rec)
		off += 8 + n
	}
	return out, nil
}

// VerifyReport summarizes a structural walk of the log file.
type VerifyReport struct {
	// Records is the number of well-formed frames from the start.
	Records int
	// LogicalEnd is where they stop.
	LogicalEnd int64
	// TailBytes is how many non-zero bytes follow LogicalEnd — a crash tail
	// recovery ignores by the torn-tail rule. Nonzero is unremarkable after
	// a crash; it only means the last append never committed.
	TailBytes int
}

// Verify walks the log's frames and reports its structure. It returns an
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
	data := make([]byte, fileSize)
	if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, fileSize), data); err != nil {
		return rep, fmt.Errorf("wal: verify read: %w", err)
	}
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < 17 || off+8+n > len(data) {
			break
		}
		if crc32.ChecksumIEEE(data[off+8:off+8+n]) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		rep.Records++
		off += 8 + n
	}
	rep.LogicalEnd = int64(off)
	for _, b := range data[off:] {
		if b != 0 {
			rep.TailBytes++
		}
	}
	if rep.TailBytes == 0 {
		return rep, nil
	}
	// Garbage after the logical end: a single torn append leaves nothing
	// parseable behind it, so if a well-formed frame exists at any later
	// offset the corruption is mid-log. Bound the search — this is an
	// integrity check, not a recovery path.
	limit := off + (1 << 20)
	if limit > len(data) {
		limit = len(data)
	}
	for cand := off + 1; cand+8 <= limit; cand++ {
		n := int(binary.LittleEndian.Uint32(data[cand:]))
		if n < 17 || cand+8+n > len(data) {
			continue
		}
		if crc32.ChecksumIEEE(data[cand+8:cand+8+n]) == binary.LittleEndian.Uint32(data[cand+4:]) {
			return rep, &ErrCorruptRecord{
				Off:    int64(off),
				Detail: fmt.Sprintf("well-formed record at offset %d beyond corrupt region; committed records are being dropped", cand),
			}
		}
	}
	return rep, nil
}

// Replay walks the log and calls apply with the RecTail payload of every
// committed group, and the group's id, in commit order. It returns the
// number of groups committed. A group with no commit record — the writer
// died, or its fsync never happened — is skipped.
func (l *Log) Replay(apply func(txn uint64, payload []byte) error) (int, error) {
	recs, err := l.Scan()
	if err != nil {
		return 0, err
	}
	pending := make(map[uint64][]byte) // a group's one tail record
	replayed := 0
	for _, r := range recs {
		switch r.Type {
		case RecTail:
			pending[r.TxnID] = r.Payload
		case RecCommit:
			if payload, ok := pending[r.TxnID]; ok {
				if err := apply(r.TxnID, payload); err != nil {
					return replayed, fmt.Errorf("wal: replay txn %d: %w", r.TxnID, err)
				}
				delete(pending, r.TxnID)
			}
			replayed++
		}
	}
	return replayed, nil
}
