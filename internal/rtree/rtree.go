// Package rtree implements a disk-backed 2-D R-tree — the spatial index the
// paper's case study compares against (§6): "a relatively common approach to
// index spatial objects using a secondary R-Tree over the trajectories".
//
// Entries are (bounding box, uint64 reference) pairs; the reference is
// opaque to the tree (the Figure 2 benchmark stores row ranges of trajectory
// chunks in it, reproducing the paper's observation that dense trajectory
// data yields many overlapping boxes, each requiring a random I/O).
//
// A tree is built once, by Sort-Tile-Recursive bulk loading, and then only
// searched. Nodes live in pager pages so index I/O is measured by the same
// counters as data I/O.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/pager"
)

// Rect is an axis-aligned bounding box.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Point returns a degenerate rect for a point.
func Point(x, y float64) Rect { return Rect{x, y, x, y} }

// Intersects reports whether two rects overlap (closed boundaries).
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Union returns the smallest rect covering both.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		math.Min(r.MinX, o.MinX), math.Min(r.MinY, o.MinY),
		math.Max(r.MaxX, o.MaxX), math.Max(r.MaxY, o.MaxY),
	}
}

// Entry is one node slot: a box plus either a child page (internal) or an
// opaque reference (leaf).
type Entry struct {
	Rect Rect
	Ref  uint64 // leaf: caller reference; internal: child PageID
}

const (
	nodeHeader = 1 + 2   // isLeaf + count
	entrySize  = 4*8 + 8 // four float64 + ref
)

// Tree is a disk-backed R-tree.
type Tree struct {
	file *pager.File
	root pager.PageID
	max  int // max entries per node (derived from page size)
}

type node struct {
	isLeaf  bool
	entries []Entry
}

func maxEntries(file *pager.File) int {
	m := (file.PayloadSize() - nodeHeader) / entrySize
	if m < 4 {
		m = 4
	}
	return m
}

func (t *Tree) readNode(id pager.PageID) (*node, error) {
	buf, err := t.file.ReadPage(id)
	if err != nil {
		return nil, err
	}
	n := &node{isLeaf: buf[0] == 1}
	count := int(binary.LittleEndian.Uint16(buf[1:]))
	off := nodeHeader
	for i := 0; i < count; i++ {
		var e Entry
		e.Rect.MinX = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		e.Rect.MinY = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
		e.Rect.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:]))
		e.Rect.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:]))
		e.Ref = binary.LittleEndian.Uint64(buf[off+32:])
		off += entrySize
		n.entries = append(n.entries, e)
	}
	return n, nil
}

func (t *Tree) writeNode(id pager.PageID, n *node) error {
	if len(n.entries) > t.max {
		return fmt.Errorf("rtree: node overflow: %d entries (max %d)", len(n.entries), t.max)
	}
	buf := make([]byte, 0, nodeHeader+len(n.entries)*entrySize)
	if n.isLeaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.entries)))
	for _, e := range n.entries {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.MaxY))
		buf = binary.LittleEndian.AppendUint64(buf, e.Ref)
	}
	return t.file.WritePage(id, buf)
}

func coverOf(entries []Entry) Rect {
	if len(entries) == 0 {
		return Rect{}
	}
	r := entries[0].Rect
	for _, e := range entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Search visits every leaf entry whose box intersects query. fn returns
// false to stop. Node page reads are counted by the pager.
func (t *Tree) Search(query Rect, fn func(Entry) bool) error {
	stack := []pager.PageID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, e := range n.entries {
			if !e.Rect.Intersects(query) {
				continue
			}
			if n.isLeaf {
				if !fn(e) {
					return nil
				}
			} else {
				stack = append(stack, pager.PageID(e.Ref))
			}
		}
	}
	return nil
}

// BulkLoad builds a tree from entries with Sort-Tile-Recursive packing:
// sort by center X, tile into vertical slices of √(n/capacity) nodes, sort
// each slice by center Y, pack.
func BulkLoad(file *pager.File, entries []Entry) (*Tree, error) {
	t := &Tree{file: file, max: maxEntries(file)}
	if len(entries) == 0 {
		id, err := file.Allocate()
		if err != nil {
			return nil, err
		}
		t.root = id
		return t, t.writeNode(id, &node{isLeaf: true})
	}
	level := make([]Entry, len(entries))
	copy(level, entries)
	isLeaf := true
	for {
		packed, ids, err := t.packLevel(level, isLeaf)
		if err != nil {
			return nil, err
		}
		if len(ids) == 1 {
			t.root = ids[0]
			return t, nil
		}
		level = packed
		isLeaf = false
	}
}

// packLevel groups entries into nodes STR-style and writes them, returning
// the parent-level entries and the node ids.
func (t *Tree) packLevel(entries []Entry, isLeaf bool) ([]Entry, []pager.PageID, error) {
	cap := t.max * 3 / 4 // Figure 2's golden page counts assume this fill
	if cap < 1 {
		cap = 1
	}
	nnodes := (len(entries) + cap - 1) / cap
	nslices := int(math.Ceil(math.Sqrt(float64(nnodes))))
	perSlice := nslices * cap

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.MinX+entries[i].Rect.MaxX < entries[j].Rect.MinX+entries[j].Rect.MaxX
	})
	var parents []Entry
	var ids []pager.PageID
	for s := 0; s < len(entries); s += perSlice {
		hi := s + perSlice
		if hi > len(entries) {
			hi = len(entries)
		}
		slice := entries[s:hi]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.MinY+slice[i].Rect.MaxY < slice[j].Rect.MinY+slice[j].Rect.MaxY
		})
		for o := 0; o < len(slice); o += cap {
			oh := o + cap
			if oh > len(slice) {
				oh = len(slice)
			}
			id, err := t.file.Allocate()
			if err != nil {
				return nil, nil, err
			}
			nd := &node{isLeaf: isLeaf, entries: slice[o:oh]}
			if err := t.writeNode(id, nd); err != nil {
				return nil, nil, err
			}
			parents = append(parents, Entry{coverOf(nd.entries), uint64(id)})
			ids = append(ids, id)
		}
	}
	return parents, ids, nil
}
