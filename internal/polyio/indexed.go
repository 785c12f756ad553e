package polyio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// testDecodeErr, when non-nil, injects a decode failure for the given
// shard — the failpoint behind the cancellation tests: one failed shard
// must stop in-flight decodes and must not unlink or damage anything.
var testDecodeErr func(shard int) error

// testSectionHook, when non-nil, observes every shard-section open
// (delta +1) and close (delta -1) — the tracking hook behind the
// section-leak tests: every section opened by a decode must be closed on
// success, error, and early-stop paths alike.
var testSectionHook func(shard int, delta int)

// sectionBufPool recycles shard read buffers across decodes; a section
// returns its buffer here when closed, which is what makes a leaked
// section a real cost and not just a bookkeeping slip.
var sectionBufPool sync.Pool

// shardSection is one in-flight shard read: the byte range claimed from
// the underlying ReaderAt plus the pooled buffer it was read into. Close
// is idempotent and must be called on every path.
type shardSection struct {
	shard int
	buf   []byte
	open  bool
}

func openSection(shard, size int) *shardSection {
	var buf []byte
	if b, ok := sectionBufPool.Get().(*[]byte); ok && cap(*b) >= size {
		buf = (*b)[:size]
	} else {
		buf = make([]byte, size)
	}
	if testSectionHook != nil {
		testSectionHook(shard, +1)
	}
	return &shardSection{shard: shard, buf: buf, open: true}
}

func (s *shardSection) Close() {
	if !s.open {
		return
	}
	s.open = false
	buf := s.buf
	s.buf = nil
	sectionBufPool.Put(&buf)
	if testSectionHook != nil {
		testSectionHook(s.shard, -1)
	}
}

// IndexedSet is the random-access v3 reader: it parses the footer index
// at open, after which every shard decodes independently — in any order,
// on any number of goroutines — straight from the underlying io.ReaderAt.
// It implements polynomial.IndexedSource, so every pipeline stage can
// overlap shard decode with its own work (ForEachShardParallel), and
// independent passes (e.g. parallel tree solves over an evicted Dataset)
// run concurrently without serializing: the reader holds no decoded state,
// only the index.
//
// Variable identity is deterministic: the footer name table is interned
// into the target namespace at open, in exactly the order a sequential
// read of the same stream would intern it, so decoded shards are
// bit-identical to a v2/v3 stream read no matter which order — or how
// many goroutines — the shards decode on. (Pre-interning is also what
// makes concurrent decodes race-free: after open, decoding only reads
// the namespace.)
type IndexedSet struct {
	r      io.ReaderAt
	closer io.Closer
	names  *polynomial.Names
	shards []v3Shard
	polys  int
	mons   int
	used   []polynomial.Var

	// maxResident, when set, clamps the parallel-decode window so at most
	// maxResident monomials of decoded-but-undelivered shards exist at
	// once (matching the budget of the ShardedSet the stream was written
	// from).
	maxResident int

	statMu       sync.Mutex
	resident     int
	peakResident int
}

// OpenIndexedSet opens a v3 stream for random access: it validates the
// header magic and trailer, parses the footer index, and interns the
// footer name table into names (a fresh namespace if nil). size is the
// total byte length of the stream. The returned set does not own r.
func OpenIndexedSet(r io.ReaderAt, size int64, names *polynomial.Names) (*IndexedSet, error) {
	if names == nil {
		names = polynomial.NewNames()
	}
	if size < int64(len(v3Magic)+1+v3TrailerLen) {
		return nil, corruptf("trailer", -1, "stream of %d bytes is too short for a v3 set", size)
	}
	var head [7]byte
	if err := readFullAt(r, head[:], 0); err != nil {
		return nil, corruptf("header", -1, "reading magic: %w", err)
	}
	if string(head[:]) != string(v3Magic) {
		return nil, fmt.Errorf("polyio: not a cobra v3 set (magic %q)", head[:])
	}
	var trailer [v3TrailerLen]byte
	if err := readFullAt(r, trailer[:], size-v3TrailerLen); err != nil {
		return nil, corruptf("trailer", -1, "reading trailer: %w", err)
	}
	if string(trailer[8:]) != string(v3TailMagic) {
		return nil, corruptf("trailer", -1, "bad tail magic %q", trailer[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	footerEnd := size - v3TrailerLen
	if footerOff < int64(len(v3Magic)) || footerOff >= footerEnd {
		return nil, corruptf("trailer", -1, "footer offset %d outside the stream", footerOff)
	}
	// The footer frame: 'F' marker, uvarint length, payload.
	head2 := make([]byte, minInt64(int64(1+binary.MaxVarintLen64), footerEnd-footerOff))
	if err := readFullAt(r, head2, footerOff); err != nil {
		return nil, corruptf("footer", -1, "reading footer frame: %w", err)
	}
	if head2[0] != frameFooter {
		return nil, corruptf("footer", -1, "expected footer marker 'F', found %q", head2[0])
	}
	flen, n := binary.Uvarint(head2[1:])
	if n <= 0 {
		return nil, corruptf("footer", -1, "bad footer length varint: %w", io.ErrUnexpectedEOF)
	}
	payloadOff := footerOff + 1 + int64(n)
	if flen > uint64(footerEnd-payloadOff) {
		return nil, corruptf("footer", -1, "footer claims %d bytes, only %d remain before the trailer", flen, footerEnd-payloadOff)
	}
	if payloadOff+int64(flen) != footerEnd {
		return nil, corruptf("footer", -1, "footer ends %d bytes before the trailer", footerEnd-(payloadOff+int64(flen)))
	}
	fbuf := make([]byte, flen)
	if err := readFullAt(r, fbuf, payloadOff); err != nil {
		return nil, corruptf("footer", -1, "reading footer payload: %w", err)
	}
	shards, fnames, err := parseV3Footer(fbuf)
	if err != nil {
		return nil, err
	}
	ix := &IndexedSet{r: r, names: names, shards: shards}
	wantPoly := uint64(0)
	prevEnd := uint64(len(v3Magic))
	for i := range shards {
		sh := &shards[i]
		if sh.firstPoly != wantPoly {
			return nil, corruptf("footer", i, "shard starts at polynomial %d, expected %d", sh.firstPoly, wantPoly)
		}
		wantPoly += sh.polys
		if sh.payloadOff < prevEnd || sh.payloadOff+sh.storedLen > uint64(footerOff) {
			return nil, corruptf("footer", i, "shard byte range [%d,%d) outside the data area", sh.payloadOff, sh.payloadOff+sh.storedLen)
		}
		prevEnd = sh.payloadOff + sh.storedLen
		ix.polys += int(sh.polys)
		ix.mons += int(sh.mons)
	}
	// Intern the footer table in order — the same Vars, in the same
	// order, a sequential read would produce — then freeze: decodes only
	// look names up from here on.
	ix.used = make([]polynomial.Var, len(fnames))
	for i, name := range fnames {
		ix.used[i] = names.Var(name)
	}
	sort.Slice(ix.used, func(a, b int) bool { return ix.used[a] < ix.used[b] })
	return ix, nil
}

// OpenIndexedFile opens path for random access; Close closes the file.
func OpenIndexedFile(path string, names *polynomial.Names) (*IndexedSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ix, err := OpenIndexedSet(f, st.Size(), names)
	if err != nil {
		f.Close()
		return nil, err
	}
	ix.closer = f
	return ix, nil
}

// Close closes the underlying file when the set owns one (OpenIndexedFile).
// It never removes anything from disk.
func (ix *IndexedSet) Close() error {
	if ix.closer == nil {
		return nil
	}
	c := ix.closer
	ix.closer = nil
	return c.Close()
}

// SetResidencyBudget clamps the parallel-decode window so at most mons
// monomials of decoded-but-undelivered shards are held at once (0 means
// unbudgeted: the window is bounded by the worker count alone).
func (ix *IndexedSet) SetResidencyBudget(mons int) { ix.maxResident = mons }

// Namespace returns the target namespace.
func (ix *IndexedSet) Namespace() *polynomial.Names { return ix.names }

// Len returns the total number of polynomials (from the footer index; no
// shard is decoded).
func (ix *IndexedSet) Len() int { return ix.polys }

// Size returns the total number of monomials (from the footer index).
func (ix *IndexedSet) Size() int { return ix.mons }

// NumShards returns the number of shards in the index.
func (ix *IndexedSet) NumShards() int { return len(ix.shards) }

// ShardRange returns the [first, first+count) polynomial range of shard i.
func (ix *IndexedSet) ShardRange(i int) (first, count int) {
	return int(ix.shards[i].firstPoly), int(ix.shards[i].polys)
}

// UsedVars returns the distinct variables of the stream (the interned
// footer table), ascending.
func (ix *IndexedSet) UsedVars() []polynomial.Var {
	out := make([]polynomial.Var, len(ix.used))
	copy(out, ix.used)
	return out
}

// ResidentMonomials returns the monomials of shards currently decoded by
// an in-flight pass.
func (ix *IndexedSet) ResidentMonomials() int {
	ix.statMu.Lock()
	defer ix.statMu.Unlock()
	return ix.resident
}

// PeakResidentMonomials returns the high-water mark of concurrently
// decoded monomials.
func (ix *IndexedSet) PeakResidentMonomials() int {
	ix.statMu.Lock()
	defer ix.statMu.Unlock()
	return ix.peakResident
}

// ConcurrentPasses reports that independent passes over an IndexedSet may
// run concurrently: decoding holds no shared mutable state beyond the
// residency counters.
func (ix *IndexedSet) ConcurrentPasses() bool { return true }

func (ix *IndexedSet) trackResident(delta int) {
	ix.statMu.Lock()
	ix.resident += delta
	if ix.resident > ix.peakResident {
		ix.peakResident = ix.resident
	}
	ix.statMu.Unlock()
}

// DecodeShard decodes shard i — any order, any goroutine: the read is a
// positioned ReadAt, the checksum is verified against the footer, and the
// namespace is only read (the footer table was interned at open). The
// returned Set is freshly decoded; the caller owns it.
func (ix *IndexedSet) DecodeShard(i int) (*polynomial.Set, error) {
	ps, err := ix.decodeShardPacked(i)
	if err != nil {
		return nil, err
	}
	return ps.View(), nil
}

// decodeShardPacked is DecodeShard up to the PackedSet the v3 decoder
// builds.
func (ix *IndexedSet) decodeShardPacked(i int) (*polynomial.PackedSet, error) {
	if i < 0 || i >= len(ix.shards) {
		return nil, fmt.Errorf("polyio: shard %d out of range [0,%d)", i, len(ix.shards))
	}
	sh := &ix.shards[i]
	sec := openSection(i, int(sh.storedLen))
	defer sec.Close()
	if err := readFullAt(ix.r, sec.buf, int64(sh.payloadOff)); err != nil {
		return nil, corruptf("shard frame", i, "reading %d stored bytes at offset %d: %w", sh.storedLen, sh.payloadOff, err)
	}
	if testDecodeErr != nil {
		if err := testDecodeErr(i); err != nil {
			return nil, err
		}
	}
	if got := crc32.ChecksumIEEE(sec.buf); got != sh.crc {
		return nil, &ChecksumError{Shard: i, Want: sh.crc, Got: got}
	}
	raw := sec.buf
	if sh.flags&v3FlagDeflate != 0 {
		var err error
		raw, err = inflateV3(sec.buf, int(sh.rawLen), i)
		if err != nil {
			return nil, err
		}
	} else if uint64(len(raw)) != sh.rawLen {
		return nil, corruptf("shard frame", i, "stored %d bytes but footer declares %d raw", len(raw), sh.rawLen)
	}
	ps, _, err := decodeV3Payload(raw, ix.names, i, true, nil)
	if err != nil {
		return nil, err
	}
	if ps.Len() != int(sh.polys) || ps.Size() != int(sh.mons) {
		return nil, corruptf("shard payload", i, "decoded %d polynomials / %d monomials, footer declares %d / %d",
			ps.Len(), ps.Size(), sh.polys, sh.mons)
	}
	return ps, nil
}

// ForEachShard decodes the shards sequentially in shard order — the
// SetSource contract. Decoded shards are transient: each is released
// (residency-wise) when fn returns.
func (ix *IndexedSet) ForEachShard(fn func(i, firstPoly int, s *polynomial.Set) error) error {
	return ix.ForEachPackedShard(func(i, firstPoly int, ps *polynomial.PackedSet) error {
		return fn(i, firstPoly, ps.View())
	})
}

// ForEachPackedShard is ForEachShard handing out the PackedSet each shard
// decodes into, with no *Set built over it
// (polynomial.PackedShardSource). Every shard decodes into a PackedSet of
// its own, so fn may keep it (polynomial.IndexedSource).
func (ix *IndexedSet) ForEachPackedShard(fn func(i, firstPoly int, ps *polynomial.PackedSet) error) error {
	for i := range ix.shards {
		ps, err := ix.decodeShardPacked(i)
		if err != nil {
			return err
		}
		ix.trackResident(int(ix.shards[i].mons))
		err = fn(i, int(ix.shards[i].firstPoly), ps)
		ix.trackResident(-int(ix.shards[i].mons))
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachShardParallel decodes up to workers shards concurrently while
// delivering them to fn sequentially, in shard order, on the calling
// goroutine — same results as ForEachShard for any worker count, with the
// disk reads and checksum/inflate/decode work hidden behind fn. The
// decode window (and with it the worker count) is clamped so undelivered
// shards stay within the residency budget, when one was set.
func (ix *IndexedSet) ForEachShardParallel(workers int, fn func(i, firstPoly int, s *polynomial.Set) error) error {
	workers = parallel.Normalize(workers)
	if workers > len(ix.shards) {
		workers = len(ix.shards)
	}
	if workers > 1 && ix.maxResident > 0 {
		maxMons := uint64(0)
		for i := range ix.shards {
			if ix.shards[i].mons > maxMons {
				maxMons = ix.shards[i].mons
			}
		}
		if maxMons > 0 {
			if w := ix.maxResident / int(maxMons); w < workers {
				workers = w
			}
		}
	}
	if workers <= 1 {
		return ix.ForEachShard(fn)
	}
	// decoded/delivered reconcile the residency counter if the pass stops
	// early: producers past the failure point have tracked shards the
	// (never-run) consume step would have released.
	var decoded, delivered int64
	var decodedMu sync.Mutex
	err := parallel.Ordered(workers, len(ix.shards),
		func(i int) (*polynomial.Set, error) {
			set, err := ix.DecodeShard(i)
			if err != nil {
				return nil, err
			}
			mons := int(ix.shards[i].mons)
			ix.trackResident(mons)
			decodedMu.Lock()
			decoded += int64(mons)
			decodedMu.Unlock()
			return set, nil
		},
		func(i int, set *polynomial.Set) error {
			err := fn(i, int(ix.shards[i].firstPoly), set)
			mons := int(ix.shards[i].mons)
			ix.trackResident(-mons)
			decodedMu.Lock()
			delivered += int64(mons)
			decodedMu.Unlock()
			return err
		})
	if err != nil {
		if leak := decoded - delivered; leak > 0 {
			ix.trackResident(int(-leak))
		}
	}
	return err
}

// readFullAt reads exactly len(p) bytes at off. io.ReaderAt is permitted
// to return io.EOF alongside a complete read; only a short read is an
// error here.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Compile-time interface conformance: the IndexedSet is the seam that
// lets every stage — and FrontierForestSource's parallel tree solves —
// consume a spilled stream concurrently.
var (
	_ polynomial.IndexedSource     = (*IndexedSet)(nil)
	_ polynomial.PackedShardSource = (*IndexedSet)(nil)
)
