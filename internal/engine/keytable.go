package engine

import (
	"hash/maphash"
	"math"
	"math/bits"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// keyTable numbers the distinct keys of a hash join, GROUP BY or DISTINCT
// 0, 1, 2, … in first-seen order. A key is the cells of a row in a fixed
// list of columns, all concrete; two keys are the same when
// relation.Value.Compare says 0 cell by cell — so INT 2 and FLOAT 2.0, or
// -0.0 and +0.0, are one key, exactly as the = of a Filter would decide —
// and NULL equals NULL (a join never looks a NULL key up). Lookup is open
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
// through their float64 value (with -0 folded onto +0), so cells that
// compare equal hash equal.
func hashKey(row []relation.Value, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		v := &row[c]
		var x uint64
		switch f, num := numeric(v); {
		case num:
			// A small integer's float64 has zeros in its low 40-odd bits,
			// which Mix alone would turn into zeros in the bits a table
			// masks: fold the exponent and high mantissa down first.
			x = math.Float64bits(f + 0)
			x ^= x >> 32
		case v.Kind == relation.KindString:
			x = maphash.String(keySeed, v.S)
		case v.B:
			x = 1
		}
		h = polynomial.Mix(h, x)
	}
	return h
}

// sameKey is Compare == 0 between each cell of key and the cell of row in
// the matching column, for concrete cells.
func sameKey(key, row []relation.Value, cols []int) bool {
	for i, c := range cols {
		x, y := &key[i], &row[c]
		xf, xnum := numeric(x)
		yf, ynum := numeric(y)
		switch {
		case xnum || ynum:
			if !xnum || !ynum || xf < yf || xf > yf {
				return false
			}
		case x.Kind != y.Kind || x.S != y.S || x.B != y.B:
			return false
		}
	}
	return true
}

func numeric(v *relation.Value) (float64, bool) {
	switch v.Kind {
	case relation.KindInt:
		return float64(v.I), true
	case relation.KindFloat:
		return v.F, true
	}
	return 0, false
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
// allocates, five times the final size, in 72-byte cells.
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
