// Package compress implements the data-reduction transforms of the storage
// algebra (paper §3.5.2). The paper supports "a wide range of compression
// schemes by producing nestings through user-defined functions" and gives
// delta compression as the worked example:
//
//	∆(N) ≡ [a − b | [a, b] ← [N, [0, n | \n ← N, limit count(N)−1]]]
//
// Codecs here are vector codecs: they encode one column of a block (a
// vec.Vector) into bytes and back, through one typed path per column kind
// they accept. Every codec is lossless and none stores a null: nulls live in
// the segment writer's bitmap, and EncodeVec refuses a column that holds
// one. The boxed codecs over []value.Value that these must agree with byte
// for byte are test reference code in internal/oracle.
//
// The codec registry maps names (as written in algebra expressions, e.g.
// delta[lat](...)) to implementations so layouts can be persisted in the
// catalog and re-instantiated on open.
package compress

import "fmt"

// Codec names one codec. Its encode and decode paths are the typed ones a
// codec implements per column kind (the *Encoder and *Decoder interfaces of
// vecencode.go and vecdecode.go), reached through EncodeVec and DecodeVec.
type Codec interface {
	// Name is the codec's identifier in the algebra grammar and catalog.
	Name() string
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "delta":
		return Delta{}, nil
	case "rle":
		return RLE{}, nil
	case "dict":
		return Dict{}, nil
	case "bitpack":
		return BitPack{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q", name)
}

// Names lists the registered codec names (for the optimizer's search space).
func Names() []string { return []string{"none", "delta", "rle", "dict", "bitpack"} }

// None is the identity codec: values are stored with their plain encoding.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Delta stores the first value raw, the second as a zigzag-varint first
// difference, and the rest as second differences (delta-of-delta).
// Integers difference directly; floats difference their IEEE-754 bit
// patterns. Consecutive GPS readings move by small, near-constant
// increments — the paper's premise ("cars move continuously by small
// increments ... more efficient to store these small increments") — so the
// first differences are small and the second differences are tiny, which is
// exactly what varints reward. Regular timestamps collapse to one byte per
// value. Everything is exact uint64 arithmetic: the codec is lossless for
// every input including NaN and infinities.
type Delta struct{}

// Name implements Codec.
func (Delta) Name() string { return "delta" }

// RLE run-length encodes repeated values as (run length, value) pairs. It is
// the natural codec for sorted low-cardinality columns (the paper's fold over
// prejoined data produces exactly such repetition).
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Dict dictionary-encodes a block: distinct values are stored once in sorted
// order, then each position stores a varint dictionary index. Best for
// low-cardinality string columns (vehicle IDs, zip codes).
type Dict struct{}

// Name implements Codec.
func (Dict) Name() string { return "dict" }

// BitPack frame-of-reference bit-packs an integer block: it stores the block
// minimum and then each value's offset from it in the minimal fixed bit
// width. Random access within a block is O(1), which matters for the array
// direct-offsetting the paper discusses in §3.1 (Data Reordering).
type BitPack struct{}

// Name implements Codec.
func (BitPack) Name() string { return "bitpack" }
