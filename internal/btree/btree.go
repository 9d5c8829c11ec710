// Package btree implements a disk-backed B+tree. The paper (§1, end)
// promises that "RodentStore will include both B+Trees as well as a variety
// of geo-spatial indices" as supporting machinery; this is that B+tree. It
// maps binary keys to 64-bit values (row positions), supports range scans
// in key order, and stores its nodes in pager pages so index I/O is counted
// by the same statistics as data I/O. A tree is built in one pass from
// sorted entries (Build) and read-only afterwards: an index covers a prefix
// of a table's stored positions, and a rewrite of those positions drops it.
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

// Build writes a tree mapping keys[i] to vals[i] and returns it. keys must
// be sorted (entries with equal keys in any order). Leaves are packed full,
// left to right, then each internal level over the one below it: every node
// is written once. Equal keys may straddle a leaf boundary; Range descends
// left of a separator equal to its lower bound and walks the leaf chain
// rightward from there.
func Build(file *pager.File, keys [][]byte, vals []uint64) (*Tree, error) {
	t := &Tree{file: file}
	payload := file.PayloadSize()
	var nodes []*node
	var firsts [][]byte // each node's first key
	for lo := 0; lo < len(keys) || len(nodes) == 0; {
		hi, used := lo, nodeHeader
		for hi < len(keys) && used+entrySize(keys[hi]) <= payload {
			used += entrySize(keys[hi])
			hi++
		}
		if hi == lo && lo < len(keys) {
			return nil, fmt.Errorf("btree: a %d-byte key does not fit a %d-byte page", len(keys[lo]), payload)
		}
		var first []byte // nil for the one empty leaf of an empty tree
		if hi > lo {
			first = keys[lo]
		}
		nodes = append(nodes, &node{isLeaf: true, keys: keys[lo:hi], vals: vals[lo:hi]})
		firsts = append(firsts, first)
		lo = hi
	}
	for {
		start, err := t.writeLevel(nodes)
		if err != nil {
			return nil, err
		}
		if len(nodes) == 1 {
			t.root = start
			return t, nil
		}
		// An internal node's first child rides in next; each later child is
		// keyed by its first key. A key that fit a leaf fits here beside
		// one other, so every level is smaller than the one below.
		var up []*node
		var upFirsts [][]byte
		for lo := 0; lo < len(nodes); {
			n := &node{next: start + pager.PageID(lo)}
			hi, used := lo+1, nodeHeader
			for hi < len(nodes) && used+entrySize(firsts[hi]) <= payload {
				used += entrySize(firsts[hi])
				n.keys = append(n.keys, firsts[hi])
				n.vals = append(n.vals, uint64(start+pager.PageID(hi)))
				hi++
			}
			up = append(up, n)
			upFirsts = append(upFirsts, firsts[lo])
			lo = hi
		}
		nodes, firsts = up, upFirsts
	}
}

// writeLevel writes one level's nodes to a fresh contiguous run, linking
// each leaf to its right sibling, and returns the run's first page.
func (t *Tree) writeLevel(nodes []*node) (pager.PageID, error) {
	start, err := t.file.AllocateRun(uint64(len(nodes)))
	if err != nil {
		return 0, err
	}
	for i, n := range nodes {
		if n.isLeaf && i+1 < len(nodes) {
			n.next = start + pager.PageID(i+1)
		}
		if err := t.writeNode(start+pager.PageID(i), n); err != nil {
			return 0, err
		}
	}
	return start, nil
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
	nkeys := int(binary.LittleEndian.Uint16(buf[1:]))
	n := &node{isLeaf: buf[0] == 1, keys: make([][]byte, 0, nkeys), vals: make([]uint64, 0, nkeys)}
	n.next = pager.PageID(binary.LittleEndian.Uint64(buf[3:]))
	off := nodeHeader
	for i := 0; i < nkeys; i++ {
		klen := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		// ReadPage hands over a fresh buffer: keys alias it, one
		// allocation per node instead of one per key.
		key := buf[off : off+klen : off+klen]
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
// Null encodes to nil, any other value (the empty string too) to a non-nil
// key, so a bound of Range is never taken for "unbounded" by mistake.
func EncodeKey(v value.Value) []byte {
	if v.IsNull() {
		return nil
	}
	return AppendKey(make([]byte, 0, 8), v)
}

// AppendKey appends v's EncodeKey encoding to dst.
func AppendKey(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Int:
		// Flip the sign bit so two's complement orders lexicographically.
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int())^(1<<63))
	case value.Float:
		f := v.Float()
		u := math.Float64bits(f)
		if f >= 0 {
			u ^= 1 << 63
		} else {
			u = ^u
		}
		return binary.BigEndian.AppendUint64(dst, u)
	case value.Str:
		return append(dst, v.Str()...)
	case value.Bytes:
		return append(dst, v.Bytes()...)
	case value.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		return dst
	}
}
