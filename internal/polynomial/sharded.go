package polynomial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// DefaultShardMonomials is the shard-size target used when ShardOptions
// leaves TargetMonomials unset.
const DefaultShardMonomials = 1 << 16

// ShardOptions configures how a ShardedSet partitions and spills its
// polynomials.
type ShardOptions struct {
	// TargetMonomials caps the monomials per shard (whole polynomials are
	// never split, so a single polynomial larger than the target forms a
	// shard of its own). <= 0 selects DefaultShardMonomials.
	TargetMonomials int
	// MaxResidentMonomials bounds the monomials the ShardedSet keeps in
	// memory at once: sealed shards beyond the budget are spilled to the
	// set's spill file and re-loaded one at a time during streaming
	// passes. <= 0 disables spilling (everything stays resident). When
	// set, the effective shard target is clamped to half the budget so
	// that one in-flight shard plus one loaded shard fit.
	MaxResidentMonomials int
	// SpillDir is where the spill file is created ("" = os.TempDir()). The
	// ShardedSet creates a private subdirectory holding its one spill file
	// and removes it on Close.
	SpillDir string
}

// withDefaults resolves the effective shard target.
func (o ShardOptions) withDefaults() ShardOptions {
	if o.TargetMonomials <= 0 {
		o.TargetMonomials = DefaultShardMonomials
	}
	if o.MaxResidentMonomials > 0 {
		if half := o.MaxResidentMonomials / 2; o.TargetMonomials > half {
			o.TargetMonomials = half
			if o.TargetMonomials < 1 {
				o.TargetMonomials = 1
			}
		}
	}
	return o
}

// shard is one fixed-size slice of a ShardedSet: resident, its slabs in
// set, or spilled (set == nil) as the record of n bytes at off in the
// set's spill file — those same slabs written as they are. Metadata
// (polys, mons, used) survives spilling.
type shard struct {
	set   *PackedSet
	off   int64
	n     int64
	polys int
	mons  int
	used  []Var // distinct vars of the shard, ascending
}

// ShardedSet is a polynomial Set split into fixed-size shards sharing one
// Names namespace, with optional spill-to-disk so sets larger than memory
// can flow through compression and valuation shard-at-a-time. Shard order
// is deterministic: concatenating the shards yields exactly the Set the
// polynomials were added as.
//
// A finished ShardedSet is safe for concurrent read-path use: streaming
// passes (ForEachShard, ForEachPackedShard and everything built on them)
// serialize on an internal mutex — they run one at a time, each
// parallelizing within a shard, never across passes, which is also what
// lets them share one spill decoder and one decode scratch — and the
// residency counters and the lazy
// used-variables cache are guarded separately so metadata reads never
// block a pass. Building (ShardBuilder.Add/Finish) is single-goroutine.
type ShardedSet struct {
	names *Names
	opts  ShardOptions

	shards  []*shard
	polyOff []int // polyOff[i] = polynomials before shard i; len = len(shards)+1

	size int // total monomials

	// iterMu serializes streaming passes: a pass may load and evict
	// spilled shards, so two passes interleaving would fight over the
	// residency budget. closed is guarded by iterMu (a pass must not race
	// a Close).
	iterMu sync.Mutex
	closed bool // guarded by iterMu

	// statMu guards the residency counters, the spill traffic and the
	// usedVars cache — the metadata concurrent solvers read while a pass
	// is in flight.
	statMu       sync.Mutex
	resident     int        // guarded by statMu; monomials currently in memory
	peakResident int        // guarded by statMu
	spilled      int        // guarded by statMu; shards currently on disk
	spillIO      SpillStats // guarded by statMu

	// usedVars caches the merged per-shard used-variable sets; usedValid
	// is cleared whenever a new shard is sealed into the set.
	usedVars  []Var // guarded by statMu
	usedValid bool  // guarded by statMu

	// spillDir is the set's private directory and spill its one spill
	// file, both created by the first spill; spillEnd is where the next
	// record goes, and encBuf the encode scratch reused across spills.
	// They are only touched by spillShard, loadShardLocked and Close,
	// whose callers are serialized (building is single-goroutine;
	// streaming passes, SpillAll and Close hold iterMu).
	spillDir string
	spill    *os.File
	spillEnd int64
	encBuf   []byte

	// dec holds the header and key bytes of the record a pass is
	// decoding, and scratch the slabs every pass decodes a spilled shard
	// into (a resident shard is handed over as it is): one shard's worth
	// of memory, kept from pass to pass until SpillAll or Close.
	dec     spillDecoder // guarded by iterMu
	scratch PackedSet    // guarded by iterMu
}

// Names returns the shared variable namespace.
func (ss *ShardedSet) Names() *Names { return ss.names }

// Namespace returns the shared variable namespace (SetSource form).
func (ss *ShardedSet) Namespace() *Names { return ss.names }

// Options returns the options the set was built with (with defaults
// resolved).
func (ss *ShardedSet) Options() ShardOptions { return ss.opts }

// NumShards returns the number of shards.
func (ss *ShardedSet) NumShards() int { return len(ss.shards) }

// Len returns the total number of polynomials.
func (ss *ShardedSet) Len() int { return ss.polyOff[len(ss.polyOff)-1] }

// Size returns the total number of monomials — the provenance size measure
// optimized by COBRA.
func (ss *ShardedSet) Size() int { return ss.size }

// PolyOffset returns the number of polynomials before shard i — the global
// index of the shard's first polynomial.
func (ss *ShardedSet) PolyOffset(i int) int { return ss.polyOff[i] }

// ResidentMonomials returns the monomials currently held in memory.
func (ss *ShardedSet) ResidentMonomials() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.resident
}

// PeakResidentMonomials returns the high-water mark of resident monomials
// over the set's lifetime (building, loading, and streaming passes).
func (ss *ShardedSet) PeakResidentMonomials() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.peakResident
}

// SpilledShards returns the number of shards currently on disk.
func (ss *ShardedSet) SpilledShards() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.spilled
}

// SpillStats is a ShardedSet's spill traffic over its lifetime.
type SpillStats struct {
	// Loads counts the spilled shards passes read back; SetLoads is how
	// many of them ForEachShard handed on as a *Set view, the rest went
	// to packed passes (ForEachPackedShard). A resident shard is never a
	// load: a packed pass gets it as it is, a *Set pass a view of it.
	Loads, SetLoads int
	// BytesRead is what the loads read, the sum of their records'
	// lengths; BytesWritten is what spilling shards wrote, the size of
	// the spill file.
	BytesRead, BytesWritten int64
}

// SpillIO returns the spill traffic so far.
func (ss *ShardedSet) SpillIO() SpillStats {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.spillIO
}

// UsedVars returns the distinct variables appearing anywhere in the set,
// ascending. It uses per-shard metadata recorded at seal time, so it never
// touches the spill file; the merged result is computed once and cached
// (the cache is invalidated when the set gains a shard), and a fresh copy
// is returned so callers cannot corrupt the cache.
func (ss *ShardedSet) UsedVars() []Var {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return append([]Var(nil), ss.usedVarsLocked()...)
}

// usedVarsLocked computes (or returns) the cached merge. statMu must be held.
func (ss *ShardedSet) usedVarsLocked() []Var {
	if !ss.usedValid {
		seen := make(map[Var]bool)
		var out []Var
		for _, sh := range ss.shards {
			for _, v := range sh.used {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		ss.usedVars = out
		ss.usedValid = true
	}
	return ss.usedVars
}

// NumVars returns the number of distinct variables appearing in the set.
func (ss *ShardedSet) NumVars() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return len(ss.usedVarsLocked())
}

// ForEachShard invokes fn once per shard in shard order, passing the
// shard's index, the global index of its first polynomial, and the shard's
// polynomials as a Set sharing the namespace: a fresh View of the shard's
// slabs, resident or loaded. Spilled shards are loaded one at a time and
// evicted again after fn returns, so the resident footprint stays within
// the budget. fn must not retain or mutate the Set beyond the call, and
// must not start another pass (ForEachShard, ForEachPackedShard or
// Materialize) or Close the same set — passes serialize on a mutex held
// for the whole iteration, so a nested pass deadlocks. Metadata accessors
// (Size, Len, UsedVars, ResidentMonomials, ...) remain safe to call from
// fn and from other goroutines. Iteration stops at fn's first error.
func (ss *ShardedSet) ForEachShard(fn func(i, firstPoly int, s *Set) error) error {
	return ss.pass(func(i int, ps *PackedSet, loaded bool) error {
		if loaded {
			ss.statMu.Lock()
			ss.spillIO.SetLoads++
			ss.statMu.Unlock()
		}
		return fn(i, ss.polyOff[i], ps.View())
	})
}

// ForEachPackedShard is ForEachShard for consumers that read slabs: every
// shard arrives as the PackedSet it is kept in — a resident shard itself,
// a spilled one decoded into the scratch every spilled shard of every pass
// reuses — and no *Set is built. fn must not retain or mutate the
// PackedSet, or anything reached through it, beyond the call. Residency is
// accounted exactly as in ForEachShard, whose restrictions apply
// unchanged.
func (ss *ShardedSet) ForEachPackedShard(fn func(i, firstPoly int, ps *PackedSet) error) error {
	return ss.pass(func(i int, ps *PackedSet, _ bool) error {
		return fn(i, ss.polyOff[i], ps)
	})
}

// pass is the one streaming pass, under iterMu: fn gets shard i as a
// PackedSet, the resident shard itself or, loaded from the spill file,
// the set's scratch. Spilled shards are loaded one at a time and released
// again after fn returns.
func (ss *ShardedSet) pass(fn func(i int, ps *PackedSet, loaded bool) error) error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return fmt.Errorf("polynomial: ShardedSet is closed")
	}
	for i, sh := range ss.shards {
		ps, loaded := sh.set, sh.set == nil
		if loaded {
			// Make room first so the load itself never breaches the budget.
			if err := ss.spillOver(sh.mons); err != nil {
				return err
			}
			ps = &ss.scratch
			if err := ss.loadShardLocked(i, ps); err != nil {
				return err
			}
			ss.trackResident(sh.mons)
		}
		err := fn(i, ps, loaded)
		if loaded {
			ss.trackResident(-sh.mons)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loadShardLocked reads spilled shard i's record into ps through the
// set's decoder; iterMu must be held.
func (ss *ShardedSet) loadShardLocked(i int, ps *PackedSet) error {
	sh := ss.shards[i]
	var err error
	if testSpillReadErr != nil {
		err = testSpillReadErr()
	}
	if err == nil {
		err = ss.dec.decode(ss.spill, sh.off, sh.n, ss.names, ps)
	}
	if err == nil && (ps.Len() != sh.polys || ps.Size() != sh.mons) {
		err = fmt.Errorf("spill record holds %d monomials in %d polynomials, shard has %d in %d", ps.Size(), ps.Len(), sh.mons, sh.polys)
	}
	if err != nil {
		return fmt.Errorf("polynomial: loading shard %d: %w", i, err)
	}
	ss.statMu.Lock()
	ss.spillIO.Loads++
	ss.spillIO.BytesRead += sh.n
	ss.statMu.Unlock()
	return nil
}

// Materialize concatenates all shards into one in-memory Set.
func (ss *ShardedSet) Materialize() (*Set, error) {
	out := NewSet(ss.names)
	if err := Copy(ss, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SpillAll writes every shard still in memory to the spill file,
// whatever the budget (none included), and drops the buffers passes keep
// between calls: afterwards the set holds no monomial — ResidentMonomials
// is 0 — and a pass loads one shard at a time, as it does for any spilled
// shard. It waits for a pass in flight. On an error the shards spilled so
// far stay spilled and the rest stay resident: the set answers every pass
// as before.
func (ss *ShardedSet) SpillAll() error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return fmt.Errorf("polynomial: ShardedSet is closed")
	}
	for _, sh := range ss.shards {
		if sh.set == nil {
			continue
		}
		if err := ss.spillShard(sh); err != nil {
			return err
		}
	}
	ss.encBuf, ss.dec, ss.scratch = nil, spillDecoder{}, PackedSet{}
	return nil
}

// Close closes the spill file, removes the spill directory and releases
// the shards. The set must not be used afterwards. Close waits for any
// in-flight streaming pass to finish before tearing down.
func (ss *ShardedSet) Close() error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	ss.shards = nil
	ss.dec, ss.scratch = spillDecoder{}, PackedSet{}
	var err error
	if ss.spill != nil {
		err = ss.spill.Close()
	}
	if ss.spillDir != "" {
		err = errors.Join(err, os.RemoveAll(ss.spillDir))
	}
	return err
}

func (ss *ShardedSet) trackResident(delta int) {
	ss.statMu.Lock()
	ss.resident += delta
	if ss.resident > ss.peakResident {
		ss.peakResident = ss.resident
	}
	ss.statMu.Unlock()
}

// spillOver spills the oldest resident sealed shards until the resident
// count (including extra monomials the caller is about to hold) fits the
// budget. With no budget it is a no-op.
func (ss *ShardedSet) spillOver(extra int) error {
	budget := ss.opts.MaxResidentMonomials
	if budget <= 0 {
		return nil
	}
	for _, sh := range ss.shards {
		ss.statMu.Lock()
		fits := ss.resident+extra <= budget
		ss.statMu.Unlock()
		if fits {
			return nil
		}
		if sh.set == nil {
			continue
		}
		if err := ss.spillShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// spillShard appends one sealed shard's record to the set's spill file:
// one file in a private directory (one per set/builder, both created on
// the first spill), so Close and ShardBuilder.Discard remove everything
// with a single RemoveAll — no per-shard files, no leaks from abandoned
// builders. The record is written at the end offset, which moves past it
// only once the write has succeeded: a failed write truncates the file back
// to the end offset, so the file holds only whole records.
func (ss *ShardedSet) spillShard(sh *shard) error {
	if ss.spill == nil {
		if ss.spillDir == "" {
			dir, err := os.MkdirTemp(ss.opts.SpillDir, "cobra-shards-")
			if err != nil {
				return fmt.Errorf("polynomial: creating spill dir: %w", err)
			}
			ss.spillDir = dir
		}
		f, err := os.Create(filepath.Join(ss.spillDir, "shards.spill"))
		if err != nil {
			return fmt.Errorf("polynomial: creating spill file: %w", err)
		}
		ss.spill = f
	}
	buf, err := encodeShardPayload(ss.encBuf[:0], sh.set)
	ss.encBuf = buf
	if err == nil {
		_, err = ss.spill.WriteAt(buf, ss.spillEnd)
	}
	if err == nil && testSpillWriteErr != nil {
		err = testSpillWriteErr()
	}
	if err != nil {
		err = errors.Join(err, ss.spill.Truncate(ss.spillEnd))
		return fmt.Errorf("polynomial: spilling shard: %w", err)
	}
	sh.set, sh.off, sh.n = nil, ss.spillEnd, int64(len(buf))
	ss.spillEnd += sh.n
	ss.statMu.Lock()
	ss.spilled++
	ss.resident -= sh.mons
	ss.spillIO.BytesWritten += sh.n
	ss.statMu.Unlock()
	return nil
}

// ShardBuilder accumulates polynomials into a ShardedSet without ever
// holding more than the memory budget: shards seal when they reach the
// target size and spill once the resident budget is exceeded. The zero
// value is not usable; call NewShardBuilder.
type ShardBuilder struct {
	ss   *ShardedSet
	cur  *PackedSet
	last [3]int // previous shard's polynomials, monomials and terms, to pre-size the next
	done bool
}

// NewShardBuilder starts building a ShardedSet over names (a fresh
// namespace if nil).
func NewShardBuilder(names *Names, opts ShardOptions) *ShardBuilder {
	if names == nil {
		names = NewNames()
	}
	return &ShardBuilder{
		ss: &ShardedSet{names: names, opts: opts.withDefaults(), polyOff: []int{0}},
	}
}

// Namespace returns the namespace the built set shares.
func (b *ShardBuilder) Namespace() *Names { return b.ss.names }

// Add appends a named polynomial, copying it into the open shard's slabs
// (p is not retained), sealing and possibly spilling shards as budgets
// fill up.
func (b *ShardBuilder) Add(key string, p Polynomial) error {
	if b.done {
		return fmt.Errorf("polynomial: ShardBuilder already finished")
	}
	if b.cur == nil {
		// Shards of one workload seal at near-identical sizes, so sizing
		// from the previous shard (with slack for drift) removes the
		// append-doubling churn of filling a shard.
		b.cur = NewPackedSet(b.ss.names)
		polys, mons, terms := b.last[0], b.last[1], b.last[2]
		b.cur.Grow(polys+polys/8, mons+mons/8, terms+terms/8)
	}
	// Spill sealed shards first so the new monomials never push the
	// resident count past the budget (the open shard itself cannot spill).
	if err := b.ss.spillOver(len(p.Mons)); err != nil {
		return err
	}
	if err := b.cur.Add(key, p); err != nil {
		return err
	}
	b.ss.size += len(p.Mons)
	b.ss.trackResident(len(p.Mons))
	target := b.ss.opts.TargetMonomials
	if b.cur.Size() >= target || b.cur.Len() >= target {
		return b.seal()
	}
	return nil
}

// AddSet appends every polynomial of s in order.
func (b *ShardBuilder) AddSet(s *Set) error {
	for i, key := range s.Keys {
		if err := b.Add(key, s.Polys[i]); err != nil {
			return err
		}
	}
	return nil
}

// AddPacked appends the polynomials of ps in order, adopting ps itself as
// a shard, with no copy, when it is no larger than a shard Add seals:
// everything before its last polynomial is under the shard target. A
// larger one goes through Add, which re-splits it. The shard open before
// the call is sealed first, and sealed shards spill under the budget as
// they do for Add. The builder owns ps from the call on: the caller must
// not use it again. ps must share the builder's namespace.
func (b *ShardBuilder) AddPacked(ps *PackedSet) error {
	if b.done || ps.names != b.ss.names {
		return fmt.Errorf("polynomial: AddPacked after Finish, or of a set over another namespace")
	}
	if n, target := ps.Len(), b.ss.opts.TargetMonomials; n > 0 && (n-1 >= target || int(ps.polyOff[n-1]) >= target) {
		return b.AddSet(ps.View())
	}
	if err := b.seal(); err != nil {
		return err
	}
	if err := b.ss.spillOver(ps.Size()); err != nil {
		return err
	}
	b.ss.size += ps.Size()
	b.ss.trackResident(ps.Size())
	b.cur = ps
	return b.seal()
}

// seal freezes the current shard, records its metadata, and spills older
// shards if the resident budget is exceeded. Sealing extends the set, so
// it invalidates the cached UsedVars merge.
func (b *ShardBuilder) seal() error {
	if b.cur == nil || b.cur.Len() == 0 {
		return nil
	}
	sh := &shard{set: b.cur, polys: b.cur.Len(), mons: b.cur.Size(), used: b.cur.UsedVars()}
	b.last = [3]int{sh.polys, sh.mons, b.cur.NumTerms()}
	b.ss.shards = append(b.ss.shards, sh)
	b.ss.polyOff = append(b.ss.polyOff, b.ss.polyOff[len(b.ss.polyOff)-1]+sh.polys)
	b.ss.statMu.Lock()
	b.ss.usedValid = false
	b.ss.usedVars = nil
	b.ss.statMu.Unlock()
	b.cur = nil
	return b.ss.spillOver(0)
}

// Finish seals the last shard and returns the built set. The builder must
// not be used afterwards. On error the partial set (including its spill
// file) is released.
func (b *ShardBuilder) Finish() (*ShardedSet, error) {
	if b.done {
		return nil, fmt.Errorf("polynomial: ShardBuilder already finished")
	}
	b.done = true
	if err := b.seal(); err != nil {
		b.ss.Close()
		return nil, err
	}
	return b.ss, nil
}

// Discard abandons the build, removing any spill file already written.
// It is a no-op after Finish (the finished set owns the file then), so
// callers can safely `defer b.Discard()` to cover every error path.
func (b *ShardBuilder) Discard() {
	if b.done {
		return
	}
	b.done = true
	b.ss.Close()
}

// BuildSharded splits an in-memory Set into a ShardedSet under opts. The
// input set is not retained: its polynomials are copied into the shards'
// slabs, so the caller should drop the original to realize the memory
// bound.
func BuildSharded(s *Set, opts ShardOptions) (*ShardedSet, error) {
	b := NewShardBuilder(s.Names, opts)
	defer b.Discard() // release a partial spill file on any error path
	if err := b.AddSet(s); err != nil {
		return nil, err
	}
	return b.Finish()
}

// --- spill codec ---------------------------------------------------------
//
// A spill file is ephemeral and private to the process that wrote it: it
// shares the in-memory Names namespace, so variables are stored as raw Var
// ids with no name table, and it never outlives the process, so there is
// one version and no compatibility path — and the machine that reads a
// file is the one that wrote it, so numbers are in its native byte order.
// The on-disk interchange formats (with name tables and cross-process
// guarantees) live in internal/polyio.
//
// A set's one spill file is its spilled shards' records back to back, at
// the offsets and lengths each shard records. A record is the shard's
// PackedSet written slab for slab, every number fixed-width in native
// byte order:
//
//	magic     "CSPILL3\n"
//	counts    polys, mons, terms, exps, keyBytes    5 × uint32
//	polyOff   (polys+1) × uint32
//	monOff    (mons+1) × uint32
//	coefs     mons × uint64                         IEEE-754 bits
//	vars      terms × uint32
//	exps      exps × uint32                         exps is terms, or 0: every exponent is 1
//	keyLen    polys × uint32
//	keys      keyBytes bytes
//
// The counts fix the record's length exactly, so one comparison against
// the length the shard recorded bounds every allocation the decoder
// makes. Encoding appends each slab's memory as it is. Decoding reads
// each slab with one positioned read straight into the memory of slabs
// the caller may reuse from shard to shard — the kernel's copy is the
// only one — followed by a structural validation of the typed slabs:
// offsets monotone and ending where the counts say, variables inside the
// namespace, exponents as the encoder writes them.
const (
	spillMagic   = "CSPILL3\n"
	spillHeadLen = len(spillMagic) + 5*4
)

// testSpillWriteErr and testSpillReadErr, when non-nil, are consulted
// after every spill record's write (so a failure leaves record bytes past
// the end offset, as a torn write would) and before every load —
// failpoints for exercising spill failures in tests.
var testSpillWriteErr, testSpillReadErr func() error

// readAt fills p from r at off; a short read is an error.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// resize returns s with length n, reallocating only when its capacity is
// too small. The contents are unspecified: callers overwrite all of it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spillLen is the exact byte length of a spill record with these counts.
func spillLen(polys, mons, terms, exps, keyBytes uint64) uint64 {
	return uint64(spillHeadLen) + 4*(polys+1) + 4*(mons+1) + 8*mons + 4*terms + 4*exps + 4*polys + keyBytes
}

// slabBytes views the memory of a slab as bytes, so that a spill writes it
// as it is and a read fills it straight from a spill record, whatever the
// alignment of the record.
func slabBytes[T int32 | float64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// encodeShardPayload appends the spill record of ps to buf: the header,
// each slab's memory as it is, then the keys. It fails only on a shard
// whose counts overflow the record's int32 offsets.
func encodeShardPayload(buf []byte, ps *PackedSet) ([]byte, error) {
	polys, mons, terms, exps := uint64(len(ps.keys)), uint64(len(ps.coefs)), uint64(len(ps.vars)), uint64(len(ps.exps))
	var keyBytes uint64
	for _, k := range ps.keys {
		keyBytes += uint64(len(k))
	}
	if polys|mons|terms|keyBytes > math.MaxInt32 {
		return buf, fmt.Errorf("shard overflows int32 offsets")
	}
	ne := binary.NativeEndian
	buf = slices.Grow(buf, int(spillLen(polys, mons, terms, exps, keyBytes)))
	buf = append(buf, spillMagic...)
	for _, n := range [...]uint64{polys, mons, terms, exps, keyBytes} {
		buf = ne.AppendUint32(buf, uint32(n))
	}
	for _, slab := range [...][]byte{slabBytes(ps.polyOff), slabBytes(ps.monOff), slabBytes(ps.coefs), slabBytes(ps.vars), slabBytes(ps.exps)} {
		buf = append(buf, slab...)
	}
	for _, k := range ps.keys {
		buf = ne.AppendUint32(buf, uint32(len(k)))
	}
	for _, k := range ps.keys {
		buf = append(buf, k...)
	}
	return buf, nil
}

// spillDecoder reads spill records out of an io.ReaderAt — the set's spill
// file, or any bytes through a bytes.Reader — with the header and key
// buffers it keeps from record to record.
type spillDecoder struct {
	head [spillHeadLen]byte
	keys []byte // key lengths, then key bytes
}

// decode reads the record of n bytes at off in r into ps, reusing the
// capacity of its slabs: each slab is one positioned read straight into
// its memory, and the key block becomes one string the keys are
// substrings of — the only allocation once the slabs have grown to the
// largest shard. The slabs are then validated as typed columns: every
// variable is checked against names, so a PackedSet this returns is safe
// to evaluate; an exponent column of all ones, which the encoder never
// writes, is rejected, so it also re-encodes to the same bytes. A record
// cut short — r holds fewer than n bytes at off — is an error, never a
// short slab.
func (d *spillDecoder) decode(r io.ReaderAt, off, n int64, names *Names, ps *PackedSet) error {
	if n < int64(spillHeadLen) {
		return fmt.Errorf("bad spill magic")
	}
	if err := readAt(r, d.head[:], off); err != nil {
		return fmt.Errorf("reading spill header: %w", err)
	}
	if string(d.head[:len(spillMagic)]) != spillMagic {
		return fmt.Errorf("bad spill magic")
	}
	ne := binary.NativeEndian
	var counts [5]uint64
	for i := range counts {
		counts[i] = uint64(ne.Uint32(d.head[len(spillMagic)+4*i:]))
	}
	polys, mons, terms, exps, keyBytes := counts[0], counts[1], counts[2], counts[3], counts[4]
	if polys|mons|terms|keyBytes > math.MaxInt32 || (exps != 0 && exps != terms) {
		return fmt.Errorf("corrupt spill counts: %d polynomials, %d monomials, %d terms, %d exponents, %d key bytes", polys, mons, terms, exps, keyBytes)
	}
	if want := spillLen(polys, mons, terms, exps, keyBytes); want != uint64(n) {
		return fmt.Errorf("corrupt spill length: counts imply %d bytes, the record holds %d", want, n)
	}
	ps.names = names
	ps.polyOff = resize(ps.polyOff, int(polys)+1)
	ps.monOff = resize(ps.monOff, int(mons)+1)
	ps.coefs = resize(ps.coefs, int(mons))
	ps.vars = resize(ps.vars, int(terms))
	ps.exps = resize(ps.exps, int(exps))
	off += int64(spillHeadLen)
	for _, slab := range [...][]byte{slabBytes(ps.polyOff), slabBytes(ps.monOff), slabBytes(ps.coefs), slabBytes(ps.vars), slabBytes(ps.exps)} {
		if err := readAt(r, slab, off); err != nil {
			return fmt.Errorf("reading spill slabs: %w", err)
		}
		off += int64(len(slab))
	}
	if !offsetsValid(ps.polyOff, mons) {
		return fmt.Errorf("corrupt spill polynomial offsets")
	}
	if !offsetsValid(ps.monOff, terms) {
		return fmt.Errorf("corrupt spill monomial offsets")
	}
	nvars := uint64(names.Len())
	for _, v := range ps.vars {
		if uint64(uint32(v)) >= nvars {
			return fmt.Errorf("corrupt spill variable %d, the namespace has %d", uint32(v), names.Len())
		}
	}
	if exps > 0 && !expsValid(ps.exps) {
		return fmt.Errorf("corrupt spill exponents: one is negative, or all of them are 1")
	}
	d.keys = resize(d.keys, int(4*polys+keyBytes))
	if err := readAt(r, d.keys, off); err != nil {
		return fmt.Errorf("reading spill keys: %w", err)
	}
	ps.keys = resize(ps.keys, int(polys))
	keyLens := d.keys[:4*polys]
	block := string(d.keys[4*polys:])
	for i := range ps.keys {
		n := uint64(ne.Uint32(keyLens[4*i:]))
		if n > uint64(len(block)) {
			return fmt.Errorf("corrupt spill key lengths")
		}
		ps.keys[i], block = block[:n], block[n:]
	}
	if block != "" {
		return fmt.Errorf("corrupt spill key lengths")
	}
	return nil
}

// offsetsValid reports whether an offset table starts at 0, never
// decreases and ends at end.
func offsetsValid(off []int32, end uint64) bool {
	prev := off[0]
	if prev != 0 {
		return false
	}
	for _, v := range off {
		if v < prev {
			return false
		}
		prev = v
	}
	return uint64(prev) == end
}

// expsValid reports whether an exponent column holds no negative exponent
// and one that is not 1.
func expsValid(exps []int32) bool {
	allOnes := true
	for _, e := range exps {
		if e < 0 {
			return false
		}
		allOnes = allOnes && e == 1
	}
	return !allOnes
}
