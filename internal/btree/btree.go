// Package btree implements a disk-backed B+tree. The paper (§1, end)
// promises that "RodentStore will include both B+Trees as well as a variety
// of geo-spatial indices" as supporting machinery; this is that B+tree. It
// maps binary keys to 64-bit values (row positions), supports range scans
// in key order, and stores its nodes in pager pages so index I/O is counted
// by the same statistics as data I/O.
//
// Nodes occupy one page each. Keys are variable-length byte strings
// compared lexicographically; callers encode typed values order-preservingly
// (see EncodeKey).
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/pager"
	"rodentstore/internal/value"
)

// node layout (page payload):
//
//	u8 isLeaf | u16 nkeys | u64 next (leaf right-sibling; 0 for internal)
//	then nkeys × (u16 keyLen | key | u64 val)
//	internal nodes store nkeys keys and nkeys+1 children: the extra child
//	is stored as the "next" field slot 0 ... simpler: internal entries are
//	(key, child) pairs plus a leftmost child in next.
const nodeHeader = 1 + 2 + 8

// Tree is a disk-backed B+tree rooted at Root.
type Tree struct {
	file *pager.File
	root pager.PageID
}

type node struct {
	isLeaf bool
	next   pager.PageID // leaf: right sibling; internal: leftmost child
	keys   [][]byte
	vals   []uint64 // leaf: values; internal: child page ids
}

// New creates an empty tree (a single empty leaf).
func New(file *pager.File) (*Tree, error) {
	t := &Tree{file: file}
	id, err := file.Allocate()
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(id, &node{isLeaf: true}); err != nil {
		return nil, err
	}
	t.root = id
	return t, nil
}

// Open attaches to an existing tree rooted at root.
func Open(file *pager.File, root pager.PageID) *Tree {
	return &Tree{file: file, root: root}
}

// Root returns the current root page (persist it to reopen the tree).
func (t *Tree) Root() pager.PageID { return t.root }

func (t *Tree) readNode(id pager.PageID) (*node, error) {
	buf, err := t.file.ReadPage(id)
	if err != nil {
		return nil, err
	}
	n := &node{isLeaf: buf[0] == 1}
	nkeys := int(binary.LittleEndian.Uint16(buf[1:]))
	n.next = pager.PageID(binary.LittleEndian.Uint64(buf[3:]))
	off := nodeHeader
	for i := 0; i < nkeys; i++ {
		klen := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		key := make([]byte, klen)
		copy(key, buf[off:off+klen])
		off += klen
		val := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, val)
	}
	return n, nil
}

func (t *Tree) writeNode(id pager.PageID, n *node) error {
	buf := make([]byte, 0, t.file.PayloadSize())
	if n.isLeaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.keys)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n.next))
	for i, k := range n.keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, n.vals[i])
	}
	if len(buf) > t.file.PayloadSize() {
		return fmt.Errorf("btree: node overflow (%d bytes)", len(buf))
	}
	return t.file.WritePage(id, buf)
}

// entrySize returns the stored size of one entry.
func entrySize(key []byte) int { return 2 + len(key) + 8 }

// fits reports whether the node fits a page after adding key.
func (t *Tree) fits(n *node, extraKey []byte) bool {
	size := nodeHeader
	for _, k := range n.keys {
		size += entrySize(k)
	}
	size += entrySize(extraKey)
	return size <= t.file.PayloadSize()
}

// Insert adds (key, val). Duplicate keys are allowed; entries with equal
// keys are adjacent in scan order.
func (t *Tree) Insert(key []byte, val uint64) error {
	promoted, newChild, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if newChild == 0 {
		return nil
	}
	// Root split: new root with one key and two children.
	rootID, err := t.file.Allocate()
	if err != nil {
		return err
	}
	newRoot := &node{isLeaf: false, next: t.root, keys: [][]byte{promoted}, vals: []uint64{uint64(newChild)}}
	if err := t.writeNode(rootID, newRoot); err != nil {
		return err
	}
	t.root = rootID
	return nil
}

// insert descends; on child split it returns the promoted key and the new
// right node's id.
func (t *Tree) insert(id pager.PageID, key []byte, val uint64) ([]byte, pager.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, 0, err
	}
	if n.isLeaf {
		pos := lowerBound(n.keys, key)
		n.keys = insertBytes(n.keys, pos, key)
		n.vals = insertU64(n.vals, pos, val)
		if t.fits(n, nil) {
			return nil, 0, t.writeNode(id, n)
		}
		return t.splitLeaf(id, n)
	}
	// Internal: child i covers keys < keys[i]; rightmost child covers rest.
	ci := lowerBound(n.keys, key)
	// For duplicate keys equal to a separator, descend right of it.
	for ci < len(n.keys) && bytes.Equal(n.keys[ci], key) {
		ci++
	}
	child := n.next
	if ci > 0 {
		child = pager.PageID(n.vals[ci-1])
	}
	promoted, newChild, err := t.insert(child, key, val)
	if err != nil || newChild == 0 {
		return nil, 0, err
	}
	n.keys = insertBytes(n.keys, ci, promoted)
	n.vals = insertU64(n.vals, ci, uint64(newChild))
	if t.fits(n, nil) {
		return nil, 0, t.writeNode(id, n)
	}
	return t.splitInternal(id, n)
}

func (t *Tree) splitLeaf(id pager.PageID, n *node) ([]byte, pager.PageID, error) {
	mid := len(n.keys) / 2
	rightID, err := t.file.Allocate()
	if err != nil {
		return nil, 0, err
	}
	right := &node{isLeaf: true, next: n.next, keys: n.keys[mid:], vals: n.vals[mid:]}
	left := &node{isLeaf: true, next: rightID, keys: n.keys[:mid], vals: n.vals[:mid]}
	if err := t.writeNode(rightID, right); err != nil {
		return nil, 0, err
	}
	if err := t.writeNode(id, left); err != nil {
		return nil, 0, err
	}
	return right.keys[0], rightID, nil
}

func (t *Tree) splitInternal(id pager.PageID, n *node) ([]byte, pager.PageID, error) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	rightID, err := t.file.Allocate()
	if err != nil {
		return nil, 0, err
	}
	right := &node{
		isLeaf: false,
		next:   pager.PageID(n.vals[mid]),
		keys:   append([][]byte{}, n.keys[mid+1:]...),
		vals:   append([]uint64{}, n.vals[mid+1:]...),
	}
	left := &node{isLeaf: false, next: n.next, keys: n.keys[:mid], vals: n.vals[:mid]}
	if err := t.writeNode(rightID, right); err != nil {
		return nil, 0, err
	}
	if err := t.writeNode(id, left); err != nil {
		return nil, 0, err
	}
	return promoted, rightID, nil
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertBytes(xs [][]byte, i int, x []byte) [][]byte {
	xs = append(xs, nil)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

func insertU64(xs []uint64, i int, x uint64) []uint64 {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// Search returns the values stored under key.
func (t *Tree) Search(key []byte) ([]uint64, error) {
	var out []uint64
	err := t.Range(key, key, func(k []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Range visits entries with lo <= key <= hi in key order. fn returns false
// to stop early. hi nil means unbounded.
func (t *Tree) Range(lo, hi []byte, fn func(key []byte, val uint64) bool) error {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.isLeaf {
			break
		}
		// Descend LEFT of separators equal to lo: when duplicates straddle a
		// split, entries equal to the promoted separator remain in the left
		// leaf; the rightward leaf-chain walk picks up the rest.
		ci := lowerBound(n.keys, lo)
		if ci > 0 {
			id = pager.PageID(n.vals[ci-1])
		} else {
			id = n.next
		}
	}
	// Walk leaves rightward from the lower bound.
	for id != 0 {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for i := lowerBound(n.keys, lo); i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) > 0 {
				return nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return nil
			}
		}
		if len(n.keys) > 0 && hi != nil && bytes.Compare(n.keys[len(n.keys)-1], hi) > 0 {
			return nil
		}
		id = n.next
	}
	return nil
}

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.isLeaf {
			return h, nil
		}
		h++
		id = n.next
	}
}

// Extents returns every page of the tree as sorted, coalesced extents — what
// a caller dropping the tree hands back to the pager. A node that cannot be
// read is still listed (the parent that names it read cleanly, so the page
// is the tree's) but not descended into; the first such error comes back
// with the extents that were reached, so the caller can free those and leak
// the rest rather than keep a damaged tree forever.
func (t *Tree) Extents() ([]pager.Extent, error) {
	var pages []pager.PageID
	var firstErr error
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		pages = append(pages, id)
		n, err := t.readNode(id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if n.isLeaf {
			return
		}
		walk(n.next)
		for _, child := range n.vals {
			walk(pager.PageID(child))
		}
	}
	walk(t.root)
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var out []pager.Extent
	for _, id := range pages {
		if n := len(out); n > 0 && out[n-1].Start+pager.PageID(out[n-1].Count) == id {
			out[n-1].Count++
		} else {
			out = append(out, pager.Extent{Start: id, Count: 1})
		}
	}
	return out, firstErr
}

// EncodeKey builds an order-preserving binary key from a typed value:
// bytes.Compare on encoded keys agrees with value.Compare within a kind.
func EncodeKey(v value.Value) []byte {
	switch v.Kind() {
	case value.Int:
		// Flip the sign bit so two's complement orders lexicographically.
		u := uint64(v.Int()) ^ (1 << 63)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], u)
		return b[:]
	case value.Float:
		f := v.Float()
		u := math.Float64bits(f)
		if f >= 0 {
			u ^= 1 << 63
		} else {
			u = ^u
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], u)
		return b[:]
	case value.Str:
		return []byte(v.Str())
	case value.Bytes:
		return v.Bytes()
	case value.Bool:
		if v.Bool() {
			return []byte{1}
		}
		return []byte{0}
	default:
		return nil
	}
}
