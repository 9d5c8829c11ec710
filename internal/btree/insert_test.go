package btree

// The insert-built tree: the incremental B+tree insert (descend, insert
// into the leaf, split on overflow, promote) the package started with. It
// is the reference Build is held to, and how these tests grow a tree key by
// key.

import (
	"bytes"

	"rodentstore/internal/pager"
)

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
