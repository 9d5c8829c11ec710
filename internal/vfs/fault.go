package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
)

// SectorSize is the granularity at which torn writes are modeled: a crashed
// write persists a whole number of sectors, never a partial one. 512 bytes is
// the traditional disk atomicity unit.
const SectorSize = 512

// ErrInjected is the sentinel wrapped by every fault the Fault file system
// injects; errors.Is(err, ErrInjected) distinguishes injected faults from
// logic errors in tests.
var ErrInjected = errors.New("vfs: injected fault")

// OpKind classifies an I/O operation for injection and observation.
type OpKind int

// The injectable operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpSync
	OpTruncate
	OpPreallocate
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpPreallocate:
		return "preallocate"
	}
	return "unknown"
}

// Op identifies one I/O operation: the Nth operation on the file system
// (N starts at 1), its kind, the file, and the affected range (Off is the
// new size for truncate/preallocate; Len is 0 for non-data ops).
type Op struct {
	N    uint64
	Kind OpKind
	Path string
	Off  int64
	Len  int
}

// Decision is an injection verdict for one operation.
type Decision int

const (
	// OK performs the operation normally.
	OK Decision = iota
	// Fail returns an error without touching the file. For OpSync the
	// semantics are fsyncgate's: the error is returned AND the un-synced
	// data is dropped from the pending set, so a later Sync "succeeds"
	// without ever having made the data durable — exactly the Linux
	// behavior that made retrying a failed fsync unsafe.
	Fail
	// Tear (writes only) persists a sector-aligned prefix of the write and
	// then fails, modeling a power cut mid-write.
	Tear
	// ShortRead (reads only) returns fewer bytes than requested with
	// io.ErrUnexpectedEOF.
	ShortRead
	// FlipBit (reads only) returns the data with a single bit flipped,
	// modeling silent media corruption on the read path.
	FlipBit
)

// CrashMode selects what a simulated power cut does with writes issued after
// the last successful sync.
type CrashMode int

const (
	// CrashDrop discards every un-synced write: the file reverts to its
	// state at the last sync. The strictest (and most common) model.
	CrashDrop CrashMode = iota
	// CrashKeep persists every un-synced write: the crash happened after
	// the device wrote everything but before anything acknowledged it.
	CrashKeep
	// CrashTorn persists a random sector-aligned prefix of each un-synced
	// write (independently per write), modeling writes torn mid-transfer.
	CrashTorn
)

// Fault is an in-memory file system with precise durability semantics: each
// file tracks a durable image (what the last successful sync persisted) plus
// the ordered list of writes since, so a simulated power cut can replay any
// physically plausible outcome. Every operation consults Inject (when set)
// for a fault verdict and then reports to OnOp (when set), which is how the
// torture harness snapshots crash states at every injectable I/O point.
//
// Inject and OnOp must be set before the file system is used; they are read
// without synchronization.
type Fault struct {
	// Inject decides the fate of each operation. nil means everything
	// succeeds.
	Inject func(Op) Decision
	// OnOp observes each operation after it completed (even when a fault
	// was injected), outside all file locks — it may call SnapshotCrash.
	OnOp func(Op)

	mu     sync.Mutex
	files  map[string]*memFile
	rng    *rand.Rand
	nextOp atomic.Uint64
}

// NewFault returns an empty fault file system. The seed drives torn-write
// prefix choices, making crash simulations reproducible.
func NewFault(seed int64) *Fault {
	return &Fault{files: make(map[string]*memFile), rng: rand.New(rand.NewSource(seed))}
}

// Image is a point-in-time copy of one file's content.
type Image struct {
	Data []byte
	Size int64 // logical size; bytes in [len(Data), Size) read as zero
}

// NewFaultFromImages returns a fault file system pre-populated with files
// whose content (and durable state) is the given images — the way the
// torture harness turns a crash snapshot into a reopenable store.
func NewFaultFromImages(seed int64, images map[string]Image) *Fault {
	f := NewFault(seed)
	for path, img := range images {
		data := append([]byte(nil), img.Data...)
		f.files[path] = &memFile{
			fs:      f,
			path:    path,
			data:    data,
			size:    img.Size,
			durable: Image{Data: append([]byte(nil), img.Data...), Size: img.Size},
		}
	}
	return f
}

// OpenFile opens (or with os.O_CREATE creates) an in-memory file. Reopening
// a path shares the underlying file state, so close/crash/reopen sequences
// behave like a real file system.
func (f *Fault) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	mf := f.files[name]
	if mf == nil {
		if flag&os.O_CREATE == 0 {
			f.mu.Unlock()
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		mf = &memFile{fs: f, path: name}
		f.files[name] = mf
	}
	f.mu.Unlock()
	if flag&os.O_TRUNC != 0 {
		mf.mu.Lock()
		mf.applyTruncate(0)
		mf.mu.Unlock()
	}
	return &faultFile{mf: mf}, nil
}

// Remove deletes the named file.
func (f *Fault) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(f.files, name)
	return nil
}

// Crash simulates a power cut across the whole file system: every file's
// content is rebuilt from its durable image plus whatever the mode says
// survived of the un-synced writes, and all pending state is discarded. Open
// handles remain usable (they see the post-crash content) but a real harness
// abandons them and reopens, as a restarted process would.
func (f *Fault) Crash(mode CrashMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, mf := range f.files {
		mf.mu.Lock()
		img := mf.crashImageLocked(mode, f.rng)
		mf.data = img.Data
		mf.size = img.Size
		mf.durable = Image{Data: append([]byte(nil), img.Data...), Size: img.Size}
		mf.pending = nil
		mf.mu.Unlock()
	}
}

// SnapshotCrash returns, without touching live state, the per-file images a
// power cut right now would leave behind under the given mode. The torture
// harness calls this from OnOp to check crash consistency at every
// injectable I/O point without restarting the workload.
func (f *Fault) SnapshotCrash(mode CrashMode) map[string]Image {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]Image, len(f.files))
	for path, mf := range f.files {
		mf.mu.Lock()
		out[path] = mf.crashImageLocked(mode, f.rng)
		mf.mu.Unlock()
	}
	return out
}

// Corrupt XORs every byte in [off, off+n) of the named file with 0xA5, in
// both the live and the durable image — simulating at-rest media corruption
// that survives reopen. It reports how many bytes were in range.
//
//lint:allow deadexport at-rest corruption that the recovery and quarantine tests inject
func (f *Fault) Corrupt(path string, off int64, n int) int {
	f.mu.Lock()
	mf := f.files[path]
	f.mu.Unlock()
	if mf == nil {
		return 0
	}
	mf.mu.Lock()
	defer mf.mu.Unlock()
	count := 0
	for _, buf := range [][]byte{mf.data, mf.durable.Data} {
		c := 0
		for i := off; i < off+int64(n) && i < int64(len(buf)); i++ {
			buf[i] ^= 0xA5
			c++
		}
		if c > count {
			count = c
		}
	}
	return count
}

// memFile is the shared state behind every handle on one path.
type memFile struct {
	fs   *Fault
	path string

	mu      sync.Mutex
	data    []byte // written bytes; [len(data), size) reads as zeros
	size    int64
	durable Image       // content as of the last successful sync
	pending []pendingOp // ordered mutations since the last sync
}

// pendingOp is one un-synced mutation. Writes carry cloned data; truncate
// and preallocate carry the new size in off.
type pendingOp struct {
	kind OpKind
	off  int64
	data []byte
}

// crashImageLocked computes the post-power-cut content under mode, starting
// from the durable image and replaying the un-synced ops the mode says
// survived. Data writes are droppable/tearable; truncate and preallocate are
// treated as journaled metadata and replayed atomically in all modes except
// CrashDrop (which reverts everything to the last sync). Note the replay
// base is the durable image, never the live bytes: writes dropped by a
// failed fsync stay visible to reads (the "page cache") but can never
// reappear in a crash image.
func (mf *memFile) crashImageLocked(mode CrashMode, rng *rand.Rand) Image {
	img := Image{Data: append([]byte(nil), mf.durable.Data...), Size: mf.durable.Size}
	if mode == CrashDrop {
		return img
	}
	for _, op := range mf.pending {
		switch op.kind {
		case OpWrite:
			data := op.data
			if mode == CrashTorn {
				// Keep a random sector-aligned prefix, independently per
				// write.
				sectors := (len(data) + SectorSize - 1) / SectorSize
				keep := rng.Intn(sectors+1) * SectorSize
				if keep > len(data) {
					keep = len(data)
				}
				data = data[:keep]
			}
			img = applyWrite(img, op.off, data)
		case OpTruncate:
			img = applyResize(img, op.off)
		case OpPreallocate:
			if op.off > img.Size {
				img.Size = op.off
			}
		}
	}
	return img
}

func applyWrite(img Image, off int64, p []byte) Image {
	if len(p) == 0 {
		return img
	}
	end := off + int64(len(p))
	if end > int64(len(img.Data)) {
		img.Data = append(img.Data, make([]byte, end-int64(len(img.Data)))...)
	}
	copy(img.Data[off:end], p)
	if end > img.Size {
		img.Size = end
	}
	return img
}

func applyResize(img Image, size int64) Image {
	if size < int64(len(img.Data)) {
		img.Data = img.Data[:size]
	}
	img.Size = size
	return img
}

// applyTruncate mutates live state (caller holds mf.mu) and records the op.
func (mf *memFile) applyTruncate(size int64) {
	if size < int64(len(mf.data)) {
		mf.data = mf.data[:size]
	}
	mf.size = size
	mf.pending = append(mf.pending, pendingOp{kind: OpTruncate, off: size})
}

// faultFile is one open handle.
type faultFile struct {
	mf     *memFile
	closed atomic.Bool
}

func (h *faultFile) op(kind OpKind, off int64, n int) (Op, Decision) {
	op := Op{N: h.mf.fs.nextOp.Add(1), Kind: kind, Path: h.mf.path, Off: off, Len: n}
	d := OK
	if inj := h.mf.fs.Inject; inj != nil {
		d = inj(op)
	}
	return op, d
}

func (h *faultFile) done(op Op) {
	if fn := h.mf.fs.OnOp; fn != nil {
		fn(op)
	}
}

func injectedErr(op Op) error {
	return fmt.Errorf("%w: %s %s @%d+%d (op %d)", ErrInjected, op.Kind, op.Path, op.Off, op.Len, op.N)
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	op, d := h.op(OpRead, off, len(p))
	defer h.done(op)
	if d == Fail {
		return 0, injectedErr(op)
	}
	mf := h.mf
	mf.mu.Lock()
	n := 0
	if off < mf.size {
		n = len(p)
		if int64(n) > mf.size-off {
			n = int(mf.size - off)
		}
		// Copy the written portion; the rest of the range is preallocated
		// space that reads as zeros.
		for i := 0; i < n; i++ {
			if off+int64(i) < int64(len(mf.data)) {
				p[i] = mf.data[off+int64(i)]
			} else {
				p[i] = 0
			}
		}
	}
	mf.mu.Unlock()
	switch d {
	case ShortRead:
		short := n / 2
		return short, fmt.Errorf("short read: %w (%v)", io.ErrUnexpectedEOF, injectedErr(op))
	case FlipBit:
		if n > 0 {
			bit := op.N % uint64(n*8)
			p[bit/8] ^= 1 << (bit % 8)
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	op, d := h.op(OpWrite, off, len(p))
	defer h.done(op)
	if d == Fail {
		return 0, injectedErr(op)
	}
	keep := p
	if d == Tear {
		// Persist a sector-aligned prefix (half the sectors, rounded down),
		// then report failure — the caller must treat the range as garbage.
		sectors := (len(p) + SectorSize - 1) / SectorSize
		keep = p[:(sectors/2)*SectorSize]
	}
	mf := h.mf
	mf.mu.Lock()
	if len(keep) > 0 {
		end := off + int64(len(keep))
		if end > int64(len(mf.data)) {
			mf.data = append(mf.data, make([]byte, end-int64(len(mf.data)))...)
		}
		copy(mf.data[off:end], keep)
		if end > mf.size {
			mf.size = end
		}
		mf.pending = append(mf.pending, pendingOp{kind: OpWrite, off: off, data: append([]byte(nil), keep...)})
	}
	mf.mu.Unlock()
	if d == Tear {
		return 0, fmt.Errorf("torn at %d bytes: %w", len(keep), injectedErr(op))
	}
	return len(p), nil
}

func (h *faultFile) Sync() error {
	if h.closed.Load() {
		return os.ErrClosed
	}
	op, d := h.op(OpSync, 0, 0)
	defer h.done(op)
	mf := h.mf
	mf.mu.Lock()
	if d == Fail {
		// fsyncgate: report the failure AND drop the dirty set. Reads keep
		// seeing the data (it is still in the "page cache"), but it can
		// never become durable — a subsequent Sync succeeds with nothing
		// left to write, exactly the Linux behavior that made retrying a
		// failed fsync unsafe.
		mf.pending = nil
		mf.mu.Unlock()
		return injectedErr(op)
	}
	// Durability is the replay of surviving pending ops onto the previous
	// durable image — NOT a clone of the live bytes, which may include
	// writes a failed fsync already condemned.
	mf.durable = mf.crashImageLocked(CrashKeep, nil)
	mf.pending = nil
	mf.mu.Unlock()
	return nil
}

func (h *faultFile) Truncate(size int64) error {
	if h.closed.Load() {
		return os.ErrClosed
	}
	op, d := h.op(OpTruncate, size, 0)
	defer h.done(op)
	if d == Fail {
		return injectedErr(op)
	}
	mf := h.mf
	mf.mu.Lock()
	mf.applyTruncate(size)
	mf.mu.Unlock()
	return nil
}

func (h *faultFile) Preallocate(size int64) error {
	if h.closed.Load() {
		return os.ErrClosed
	}
	op, d := h.op(OpPreallocate, size, 0)
	defer h.done(op)
	if d == Fail {
		return injectedErr(op)
	}
	mf := h.mf
	mf.mu.Lock()
	if size > mf.size {
		mf.size = size
		mf.pending = append(mf.pending, pendingOp{kind: OpPreallocate, off: size})
	}
	mf.mu.Unlock()
	return nil
}

func (h *faultFile) Size() (int64, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	mf := h.mf
	mf.mu.Lock()
	defer mf.mu.Unlock()
	return mf.size, nil
}

func (h *faultFile) Close() error {
	h.closed.Store(true)
	return nil
}
