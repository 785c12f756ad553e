package engine

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// HashJoin is an equi-join: build a key table on the right (build) side,
// probe with the left side. Join multiplies annotations (⊗ in the semiring
// model). Key columns must hold concrete values; key equality is the
// keyTable's (Compare == 0, so INT and FLOAT keys meet), and a NULL key
// never joins.
//
// Row order: probe rows in input order, each followed by its matching
// build rows in build-input order.
//
// Only the columns in keep are stored for the build side and emitted: the
// planner passes the columns something above the join still reads.
type HashJoin struct {
	left, right         Iterator
	leftKeys, rightKeys []int
	leftKeep, rightKeep []int // emitted columns, as indices into each child's schema
	schema              *relation.Schema

	keys keyTable // distinct build keys
	// Build rows with one key are chained in insertion order: first and
	// last row per key id, next row per build row (-1 ends the chain).
	first, last, next []int32
	rows              chunked[relation.Value] // the build rows' kept cells
	anns              chunked[polynomial.Polynomial]

	match   int32 // next build row to emit for the current probe row, -1 = none
	leftAnn polynomial.Polynomial
	outBuf  []relation.Value // reused output row (row-validity contract)
}

// NewHashJoin joins left and right on left.leftKeys[i] = right.rightKeys[i].
// keep lists the output columns as ascending indices into the concatenated
// schema (left's columns, then right's); nil keeps them all.
func NewHashJoin(left, right Iterator, leftKeys, rightKeys, keep []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("engine: hash join needs matching, non-empty key lists")
	}
	all := left.Schema().Concat(right.Schema())
	nl := left.Schema().Len()
	if keep == nil {
		keep = make([]int, all.Len())
		for i := range keep {
			keep[i] = i
		}
	}
	j := &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		schema: &relation.Schema{Cols: make([]relation.Column, len(keep))},
		outBuf: make([]relation.Value, len(keep)),
	}
	for i, c := range keep {
		j.schema.Cols[i] = all.Cols[c]
		if c < nl {
			j.leftKeep = append(j.leftKeep, c)
		} else {
			j.rightKeep = append(j.rightKeep, c-nl)
		}
	}
	return j, nil
}

func (j *HashJoin) Schema() *relation.Schema { return j.schema }

func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		j.left.Close() // don't leak the already-opened left child
		return err
	}
	if err := j.buildTable(); err != nil {
		j.left.Close()
		j.right.Close()
		return err
	}
	j.match = -1
	return nil
}

// buildTable drains the (already opened) build side into the key table.
// The build side is retained for the whole probe phase, so the kept cells
// are copied out of the child's reused row buffer (row-validity contract).
func (j *HashJoin) buildTable() error {
	j.keys = keyTable{}
	j.first, j.last, j.next = j.first[:0], j.last[:0], j.next[:0]
	j.rows = chunked[relation.Value]{width: len(j.rightKeep)}
	j.anns = chunked[polynomial.Polynomial]{width: 1}
	for {
		t, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		skip, err := unjoinable(t.Values, j.rightKeys)
		if err != nil {
			return err
		}
		if skip {
			continue
		}
		row := len(j.next)
		id, seen := j.keys.lookup(hashKey(t.Values, j.rightKeys), t.Values, j.rightKeys, true)
		if seen {
			j.next[j.last[id]] = int32(row)
			j.last[id] = int32(row)
		} else {
			j.first = append(j.first, int32(row))
			j.last = append(j.last, int32(row))
		}
		j.next = append(j.next, -1)
		kept := j.rows.at(row)
		for i, c := range j.rightKeep {
			kept[i] = t.Values[c]
		}
		j.anns.at(row)[0] = t.Ann
	}
}

// unjoinable checks the key columns of a row: skip reports a NULL (NULL
// never joins); a symbolic key column is an error.
func unjoinable(row []relation.Value, cols []int) (skip bool, err error) {
	for _, c := range cols {
		switch row[c].Kind() {
		case relation.KindNull:
			return true, nil
		case relation.KindPoly:
			return false, fmt.Errorf("engine: cannot hash-join on symbolic column %d", c)
		}
	}
	return false, nil
}

func (j *HashJoin) Close() error {
	j.keys, j.rows, j.anns = keyTable{}, chunked[relation.Value]{}, chunked[polynomial.Polynomial]{}
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Next emits the next joined row: annotations multiply, and the output row
// buffer is reused across pulls (row-validity contract) — its left part is
// written once per probe row, its right part once per match.
func (j *HashJoin) Next() (relation.Tuple, bool, error) {
	for j.match < 0 {
		t, ok, err := j.left.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		skip, err := unjoinable(t.Values, j.leftKeys)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		if skip {
			continue
		}
		id, ok := j.keys.lookup(hashKey(t.Values, j.leftKeys), t.Values, j.leftKeys, false)
		if !ok {
			continue
		}
		j.match = j.first[id]
		j.leftAnn = t.Ann
		for i, c := range j.leftKeep {
			j.outBuf[i] = t.Values[c]
		}
	}
	r := int(j.match)
	j.match = j.next[r]
	copy(j.outBuf[len(j.leftKeep):], j.rows.at(r))
	return relation.Tuple{Values: j.outBuf, Ann: polynomial.Mul(j.leftAnn, j.anns.at(r)[0])}, true, nil
}

// joinTuples concatenates values and multiplies annotations (the
// allocating form used by the nested-loop join).
func joinTuples(l, r relation.Tuple) relation.Tuple {
	vals := make([]relation.Value, 0, len(l.Values)+len(r.Values))
	vals = append(vals, l.Values...)
	vals = append(vals, r.Values...)
	return relation.Tuple{Values: vals, Ann: polynomial.Mul(l.Ann, r.Ann)}
}

// NestedLoopJoin is the cross product of its inputs; a predicate over both
// sides runs in a Filter above it. The right side is materialized on Open.
type NestedLoopJoin struct {
	left, right Iterator
	schema      *relation.Schema

	rightRows []relation.Tuple
	cur       relation.Tuple // the left row being joined
	ri        int            // next right row to join with cur
}

// NewNestedLoopJoin builds a cross join.
func NewNestedLoopJoin(left, right Iterator) *NestedLoopJoin {
	return &NestedLoopJoin{
		left: left, right: right,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (j *NestedLoopJoin) Schema() *relation.Schema { return j.schema }

func (j *NestedLoopJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		j.left.Close() // don't leak the already-opened left child
		return err
	}
	// The right side is retained for the whole outer iteration, so its
	// values are copied out of the child's reused row buffer into one
	// flat backing, sliced into per-row windows once appends can no
	// longer move it (row-validity contract).
	j.rightRows = nil
	var vals []relation.Value
	var valOff []int
	for {
		t, ok, err := j.right.Next()
		if err != nil {
			j.left.Close()
			j.right.Close()
			return err
		}
		if !ok {
			break
		}
		valOff = append(valOff, len(vals))
		vals = append(vals, t.Values...)
		j.rightRows = append(j.rightRows, relation.Tuple{Ann: t.Ann})
	}
	valOff = append(valOff, len(vals))
	for i := range j.rightRows {
		lo, hi := valOff[i], valOff[i+1]
		j.rightRows[i].Values = vals[lo:hi:hi]
	}
	j.ri = len(j.rightRows) // no left row yet
	return nil
}

func (j *NestedLoopJoin) Close() error {
	j.rightRows = nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *NestedLoopJoin) Next() (relation.Tuple, bool, error) {
	for j.ri >= len(j.rightRows) {
		t, ok, err := j.left.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		j.cur, j.ri = t, 0
	}
	j.ri++
	return joinTuples(j.cur, j.rightRows[j.ri-1]), true, nil
}
