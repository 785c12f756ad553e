package engine

import (
	"hash/maphash"
	"math"
	"math/bits"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// keyTable numbers the distinct keys of a hash join or GROUP BY 0, 1, 2,
// … in first-seen order. A key is the cells of a row in a fixed
// list of columns, all concrete; two keys are the same when
// relation.Value.Compare says 0 cell by cell — so INT 2 and FLOAT 2.0, or
// -0.0 and +0.0, are one key, exactly as the = of a Filter would decide,
// while two INTs are one key only when they are the same int64 — and NULL
// equals NULL (a join never looks a NULL key up). FuzzKeyContract checks
// that sameKey is Compare == 0 and that one key has one hash. Lookup is open
// addressing on a 64-bit hash of the cells with every hash tie settled by
// comparing the cells, so nothing is rendered to bytes and nothing is
// allocated per row.
type keyTable struct {
	cells  chunked[relation.Value] // key id's cells, as first seen
	hashes []uint64                // per key id
	slots  []int32                 // key id + 1; 0 = empty
}

var keySeed = maphash.MakeSeed()

// hashKey hashes the cells of row in cols by kind. Both numeric kinds hash
// through their float64 value (with -0 folded onto +0 and every NaN onto
// one), so cells that compare equal hash equal — and so do two big INTs
// that round to one float64, which sameKey then tells apart.
func hashKey(row []relation.Value, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		v := row[c]
		var x uint64
		switch v.Kind() {
		case relation.KindInt, relation.KindFloat:
			// A small integer's float64 has zeros in its low 40-odd bits,
			// which Mix alone would turn into zeros in the bits a table
			// masks: fold the exponent and high mantissa down first.
			f, _ := v.AsFloat()
			if f != f {
				f = math.NaN()
			}
			x = math.Float64bits(f + 0)
			x ^= x >> 32
		case relation.KindString:
			x = maphash.String(keySeed, v.S())
		case relation.KindBool:
			if v.B() {
				x = 1
			}
		}
		h = polynomial.Mix(h, x)
	}
	return h
}

// sameKey is Compare == 0 between each cell of key and the cell of row in
// the matching column, for concrete cells.
func sameKey(key, row []relation.Value, cols []int) bool {
	for i, c := range cols {
		if cmp, err := key[i].Compare(row[c]); err != nil || cmp != 0 {
			return false
		}
	}
	return true
}

// lookup returns the id of the key row holds in cols, whose hashKey is h.
// A key not yet in the table gets the next id when insert is set (its
// cells are copied); ok = false either way.
func (kt *keyTable) lookup(h uint64, row []relation.Value, cols []int, insert bool) (id int, ok bool) {
	if len(kt.slots) == 0 {
		if !insert {
			return 0, false
		}
		kt.slots = make([]int32, 64)
		kt.cells.width = len(cols)
	}
	mask := uint64(len(kt.slots) - 1)
	s := h & mask
	for ; kt.slots[s] != 0; s = (s + 1) & mask {
		id := int(kt.slots[s] - 1)
		if kt.hashes[id] == h && sameKey(kt.cells.at(id), row, cols) {
			return id, true
		}
	}
	if !insert {
		return 0, false
	}
	id = len(kt.hashes)
	key := kt.cells.at(id)
	for i, c := range cols {
		key[i] = row[c]
	}
	kt.hashes = append(kt.hashes, h)
	kt.slots[s] = int32(id + 1)
	if 2*len(kt.hashes) > len(kt.slots) {
		kt.slots = make([]int32, 2*len(kt.slots))
		mask = uint64(len(kt.slots) - 1)
		for i, kh := range kt.hashes {
			s := kh & mask
			for kt.slots[s] != 0 {
				s = (s + 1) & mask
			}
			kt.slots[s] = int32(i + 1)
		}
	}
	return id, false
}

// len returns the number of distinct keys.
func (kt *keyTable) len() int { return len(kt.hashes) }

// key returns the cells of key id as first seen.
func (kt *keyTable) key(id int) []relation.Value { return kt.cells.at(id) }

// columns returns 0, 1, …, n-1: the cols of a key that is a whole row.
func columns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// chunked stores rows of width elements each in chunks of doubling size
// (64 rows, 128, 256, …), so storing a row never moves an earlier one and a
// build of unknown size allocates less than twice what it keeps — append
// alone grows a large slice by a quarter at a time, which copies, and
// allocates, five times the final size.
type chunked[T any] struct {
	width  int
	chunks [][]T // chunk k holds rows [64·(2^k − 1), 64·(2^(k+1) − 1))
}

// at returns row i, which must be a row already returned or the next one.
func (s *chunked[T]) at(i int) []T {
	k := bits.Len(uint(i/64+1)) - 1
	if k == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, (64<<k)*s.width))
	}
	off := (i - 64*(1<<k-1)) * s.width
	return s.chunks[k][off : off+s.width : off+s.width]
}
