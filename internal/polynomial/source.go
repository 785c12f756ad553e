package polynomial

// SetSource is the streaming view of a polynomial collection that every
// downstream pipeline stage (signature indexing, cut application, batch
// valuation, serialization) consumes: keyed polynomials iterated
// shard-at-a-time in one deterministic order, under one shared namespace,
// with residency accounting. It is implemented by both *Set (one resident
// shard: itself) and *ShardedSet (fixed-size shards that may stream from
// a spill file), so each stage is written once and works in-memory and
// out-of-core alike.
//
// A source may offer more than this, and a stage asks by type assertion
// or through the helper named here, never by naming a concrete type:
//
//   - ShardParallelSource: shards load or decode on several goroutines
//     while fn still sees them in order (polyio.IndexedSet; ask through
//     ForEachShardN).
//   - PackedShardSource: shards are handed over as PackedSet slabs, with
//     no *Set built (*ShardedSet, *PackedSet, polyio.IndexedSet; ask
//     through PackedShards).
//   - IndexedSource: independent passes may run concurrently
//     (polyio.IndexedSet).
//
// ContextSource forwards all three for whatever it wraps.
type SetSource interface {
	// Namespace returns the shared variable namespace.
	Namespace() *Names
	// Len returns the total number of polynomials.
	Len() int
	// Size returns the total number of monomials — the provenance size
	// measure optimized by COBRA.
	Size() int
	// UsedVars returns the distinct variables appearing anywhere in the
	// source, ascending.
	UsedVars() []Var
	// ForEachShard invokes fn once per shard in shard order, passing the
	// shard's index, the global index of its first polynomial, and the
	// shard's polynomials as a Set sharing the namespace. Concatenating the
	// shards yields the full collection. fn must not retain or mutate the
	// Set beyond the call; iteration stops at fn's first error.
	ForEachShard(fn func(i, firstPoly int, s *Set) error) error
	// ResidentMonomials returns the monomials currently held in memory.
	ResidentMonomials() int
	// PeakResidentMonomials returns the high-water mark of resident
	// monomials over the source's lifetime.
	PeakResidentMonomials() int
}

// ShardParallelSource is implemented by sources whose shards can be
// decoded concurrently: ForEachShardParallel overlaps shard production
// across up to workers goroutines while still delivering the shards to fn
// sequentially, in shard order, on the calling goroutine — the same
// determinism contract as ForEachShard, with the decode latency hidden.
// Implementations bound the number of shards resident at once (their
// residency budget, or the worker count when unbudgeted). With workers
// <= 1 it is exactly ForEachShard. polyio.IndexedSet, whose shards
// inflate and varint-decode, gains 1.33x from it at two workers; a
// ShardedSet, whose loads are a bulk copy, measured 0.98x and does not
// implement it.
type ShardParallelSource interface {
	ForEachShardParallel(workers int, fn func(i, firstPoly int, s *Set) error) error
}

// PackedShardSource is implemented by sources that can hand a shard over
// as the PackedSet it is stored (or was decoded) in, for consumers that
// read slabs and would only flatten a *Set again: ForEachPackedShard is
// ForEachShard with that one difference, and fn must not retain the
// PackedSet beyond the call — a source may decode every shard into the
// same one. Ask through PackedShards, which sees through wrappers.
type PackedShardSource interface {
	ForEachPackedShard(fn func(i, firstPoly int, ps *PackedSet) error) error
}

// PackedShards returns src as a PackedShardSource when the source
// underneath any ContextSource wrappers is one (a wrapper has the method
// whatever it wraps, and forwards it with its own per-shard check).
func PackedShards(src SetSource) (PackedShardSource, bool) {
	if _, ok := Unwrap(src).(PackedShardSource); !ok {
		return nil, false
	}
	ps, ok := src.(PackedShardSource)
	return ps, ok
}

// IndexedSource is a SetSource backed by a random-access index of
// independently decodable shards: beyond the parallel pass, independent
// streaming passes may run concurrently without serializing on shared
// mutable state (unlike *ShardedSet, whose passes fight over one
// residency budget and therefore serialize). It is the seam that lets
// FrontierForestSource solve the trees of a spilled forest in parallel,
// and what lets a Dataset decode such a source once into a ShardedSet.
// Implemented by polyio.IndexedSet.
type IndexedSource interface {
	SetSource
	ShardParallelSource
	// Passes run concurrently, so none reuses another's decoded shard:
	// ForEachPackedShard hands each shard over in a PackedSet of its own,
	// which fn may keep — an exception to PackedShardSource's rule.
	PackedShardSource
	// ConcurrentPasses reports whether independent streaming passes over
	// this source may run concurrently. IndexedSource implementations
	// return true; the method exists so wrappers (ContextSource) can
	// forward the answer of whatever they wrap.
	ConcurrentPasses() bool
}

// ForEachShardN streams src's shards into fn in shard order — exactly
// like src.ForEachShard — decoding up to workers shards concurrently when
// the source supports it. Every pipeline stage with a Workers knob calls
// this instead of ForEachShard so the disk pipeline parallelizes without
// the stage knowing the source representation. Results are bit-identical
// to the sequential pass for any worker count: fn always runs
// sequentially, in shard order, on the calling goroutine.
func ForEachShardN(src SetSource, workers int, fn func(i, firstPoly int, s *Set) error) error {
	if workers > 1 {
		if ps, ok := src.(ShardParallelSource); ok {
			return ps.ForEachShardParallel(workers, fn)
		}
	}
	return src.ForEachShard(fn)
}

// SetSink receives keyed polynomials one at a time, in the order a
// SetSource (or a streaming producer such as provenance capture) emits
// them. It is implemented by *Set (materializes everything) and
// *ShardBuilder (seals fixed-size shards and spills past the memory
// budget).
type SetSink interface {
	// Add appends one named polynomial.
	Add(key string, p Polynomial) error
}

// Compile-time interface conformance.
var (
	_ SetSource = (*Set)(nil)
	_ SetSource = (*ShardedSet)(nil)
	_ SetSource = (*PackedSet)(nil)
	_ SetSink   = (*Set)(nil)
	_ SetSink   = (*ShardBuilder)(nil)
	_ SetSink   = (*PackedSet)(nil)

	_ PackedShardSource = (*ShardedSet)(nil)
	_ PackedShardSource = (*PackedSet)(nil)
	_ PackedShardSource = (*ContextSource)(nil)
)

// Copy streams every polynomial of src into sink in shard order — the
// generic materialize/spill/serialize bridge between any source and any
// sink.
func Copy(src SetSource, sink SetSink) error {
	return src.ForEachShard(func(_, _ int, s *Set) error {
		for i, key := range s.Keys {
			if err := sink.Add(key, s.Polys[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- SetSource/SetSink conformance of the in-memory Set -----------------

// Namespace returns the set's variable namespace (the Names field; the
// method form satisfies SetSource, where a field cannot).
func (s *Set) Namespace() *Names { return s.Names }

// ForEachShard presents the in-memory set as a single resident shard:
// one fn call with index 0, first polynomial 0, and the set itself.
func (s *Set) ForEachShard(fn func(i, firstPoly int, shard *Set) error) error {
	return fn(0, 0, s)
}

// ResidentMonomials returns Size(): an in-memory set is fully resident.
func (s *Set) ResidentMonomials() int { return s.Size() }

// PeakResidentMonomials returns Size(): an in-memory set is fully
// resident for its whole lifetime.
func (s *Set) PeakResidentMonomials() int { return s.Size() }

// PackSet copies an in-memory Set into a packed set. The only failure
// mode is a set whose monomial or term count overflows the packed
// layout's int32 offsets.
//
// It is the package's last function on purpose: a package's functions
// are laid out in file order, and valuation.Compile links it into
// binaries that had left it out. Placed in packed.go it moved every
// function after it by half a 64-byte line, and store_outofcore's slider
// (spill decode and the packed pass, sharded.go) ran ≈ 12 % slower.
func PackSet(s *Set) (*PackedSet, error) {
	ps := NewPackedSet(s.Names)
	nt := 0
	for _, p := range s.Polys {
		nt += p.NumTerms()
	}
	ps.Grow(s.Len(), s.Size(), nt)
	for i, key := range s.Keys {
		if err := ps.Add(key, s.Polys[i]); err != nil {
			return nil, err
		}
	}
	return ps, nil
}
