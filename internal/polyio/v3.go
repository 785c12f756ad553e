package polyio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// The v3 binary format is a stream of shard frames with a delta-varint
// columnar payload, optional per-shard DEFLATE framing, and a footer index
// that makes every shard independently decodable:
//
//	magic "CPRVB3\n"
//	repeated shard frames:
//	    'S' marker
//	    flags byte (bit 0: payload is DEFLATE-compressed)
//	    uvarint rawLen     (payload size before compression)
//	    uvarint storedLen  (payload bytes that follow)
//	    payload
//	footer frame:
//	    'F' marker
//	    uvarint footerLen, then the footer payload:
//	        uvarint shard count
//	        per shard: uvarint payload offset, storedLen, rawLen;
//	            flags byte; uvarint first polynomial index, polynomial
//	            count, monomial count; 4-byte LE CRC32 (IEEE) of the
//	            stored payload bytes
//	        uvarint name count, then the used-variable names
//	            (length-prefixed) in first-appearance order across the
//	            shard payloads
//	trailer:
//	    8-byte LE offset of the 'F' marker, tail magic "CPRVF3\n"
//
// The trailer lets a random-access reader (IndexedSet) locate the footer
// by seeking from the end; the footer gives it every shard's byte range,
// size and checksum, so shards decode independently, in any order, on any
// number of goroutines. The footer name table repeats the union of the
// per-shard tables in exactly the order a sequential read would intern
// them, so an indexed open pre-interns the same Vars a sequential read
// produces — random-access decode is bit-identical to the stream.
//
// Each shard payload is self-describing and columnar (grouping like
// fields makes DEFLATE's job easy):
//
//	uvarint nVars, then nVars length-prefixed names (ascending shard-
//	    local index; when the reader's namespace assigns the names in the
//	    same relative order the remap is monotone and terms stay strictly
//	    ascending, otherwise the decoder re-canonicalizes the shard)
//	uvarint nPolys, nMons, nTerms, keyBytes
//	key block (keyBytes bytes, keys concatenated), nPolys uvarint key
//	    lengths
//	nPolys uvarint monomial counts
//	nMons coefficient markers: uvarint c — c even: the exact integer
//	    unzigzag(c/2); c == 1: the coefficient lives in the raw-float
//	    block (the escape hatch for fractional, huge, NaN and -0)
//	raw-float block: the marker-1 coefficients as contiguous 8-byte LE
//	    float64s — keeping them out of the marker column leaves LZ77
//	    match distances between similar floats byte-aligned, which is
//	    what lets DEFLATE exploit their shared structure
//	nMons uvarint term counts
//	per monomial: first variable as uvarint local index, subsequent
//	    ones as uvarint (delta-1) — canonical monomials have strictly
//	    ascending variables; every variable is followed by uvarint
//	    (exponent-1)

// v3Magic identifies the v3 indexed binary set format; v3TailMagic ends
// the trailer.
var (
	v3Magic     = []byte("CPRVB3\n")
	v3TailMagic = []byte("CPRVF3\n")
)

const (
	frameFooter = 'F'

	// v3FlagDeflate marks a shard payload as DEFLATE-compressed.
	v3FlagDeflate = 1 << 0

	// v3MaxShardBytes clamps per-shard payload sizes claimed by a file, so
	// corrupt or adversarial inputs cannot demand absurd allocations.
	v3MaxShardBytes = 1 << 30

	// v3TrailerLen is the fixed byte length of the trailer: 8-byte footer
	// offset plus the tail magic.
	v3TrailerLen = 8 + 7
)

// CorruptError reports v3 data that is structurally invalid — truncated,
// inconsistent with its footer index, or malformed at any field. Shard is
// the shard the failure was detected in, or -1 for header/footer damage.
type CorruptError struct {
	Section string // what was being decoded, e.g. "shard payload", "footer"
	Shard   int    // shard index, or -1
	Err     error  // underlying cause, e.g. io.ErrUnexpectedEOF, a flate error
}

func (e *CorruptError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("polyio: corrupt v3 %s (shard %d): %v", e.Section, e.Shard, e.Err)
	}
	return fmt.Sprintf("polyio: corrupt v3 %s: %v", e.Section, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// corruptf builds a CorruptError with a formatted cause.
func corruptf(section string, shard int, format string, args ...any) error {
	return &CorruptError{Section: section, Shard: shard, Err: fmt.Errorf(format, args...)}
}

// ChecksumError reports a shard whose stored payload bytes do not match
// the checksum recorded in the footer index.
type ChecksumError struct {
	Shard     int
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("polyio: v3 shard %d checksum mismatch: footer records %08x, payload hashes to %08x", e.Shard, e.Want, e.Got)
}

// v3Shard is one footer index entry.
type v3Shard struct {
	payloadOff uint64 // file offset of the payload bytes
	storedLen  uint64 // payload bytes as stored (post-compression)
	rawLen     uint64 // payload bytes before compression
	flags      byte
	firstPoly  uint64 // global index of the shard's first polynomial
	polys      uint64
	mons       uint64
	crc        uint32 // CRC32 (IEEE) of the stored payload bytes
}

// V3Options configures the v3 writer.
type V3Options struct {
	// Compress DEFLATE-compresses each shard payload (the flag is
	// per-shard: a payload that compression would grow is stored raw).
	Compress bool
}

// SetWriterV3 incrementally writes a v3 stream, one shard per WriteShard
// call, accumulating the footer index as it goes; Close appends the index
// and trailer. It never retains shard data, so sets far larger than memory
// stream through it — only the index (a few dozen
// bytes per shard) grows with the stream.
type SetWriterV3 struct {
	bw     *bufio.Writer
	opts   V3Options
	off    uint64 // bytes emitted so far (the writer tracks file offsets itself)
	index  []v3Shard
	names  []string // footer name table, first-appearance order
	seen   map[string]struct{}
	polys  uint64
	raw    []byte // reusable raw-payload buffer
	comp   bytes.Buffer
	fw     *flate.Writer
	closed bool
}

// NewSetWriterV3 writes the v3 magic and returns the writer.
func NewSetWriterV3(w io.Writer, opts V3Options) (*SetWriterV3, error) {
	sw := &SetWriterV3{
		bw:   bufio.NewWriter(w),
		opts: opts,
		seen: make(map[string]struct{}),
	}
	if _, err := sw.bw.Write(v3Magic); err != nil {
		return nil, err
	}
	sw.off = uint64(len(v3Magic))
	return sw, nil
}

// WriteShard appends one shard frame holding the given polynomials and
// records its footer index entry.
func (sw *SetWriterV3) WriteShard(set *polynomial.Set) error {
	if sw.closed {
		return fmt.Errorf("polyio: SetWriterV3 already closed")
	}
	raw, shardNames, mons, err := appendV3Payload(sw.raw[:0], set)
	if err != nil {
		return err
	}
	sw.raw = raw
	for _, n := range shardNames {
		if _, ok := sw.seen[n]; !ok {
			sw.seen[n] = struct{}{}
			sw.names = append(sw.names, n)
		}
	}
	stored := raw
	var flags byte
	if sw.opts.Compress {
		sw.comp.Reset()
		if sw.fw == nil {
			fw, err := flate.NewWriter(&sw.comp, flate.DefaultCompression)
			if err != nil {
				return err
			}
			sw.fw = fw
		} else {
			sw.fw.Reset(&sw.comp)
		}
		if _, err := sw.fw.Write(raw); err != nil {
			return err
		}
		if err := sw.fw.Close(); err != nil {
			return err
		}
		if sw.comp.Len() < len(raw) {
			stored = sw.comp.Bytes()
			flags |= v3FlagDeflate
		}
	}
	var hdr [2 + 2*binary.MaxVarintLen64]byte
	hdr[0] = frameShard
	hdr[1] = flags
	n := 2
	n += binary.PutUvarint(hdr[n:], uint64(len(raw)))
	n += binary.PutUvarint(hdr[n:], uint64(len(stored)))
	if _, err := sw.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := sw.bw.Write(stored); err != nil {
		return err
	}
	sw.index = append(sw.index, v3Shard{
		payloadOff: sw.off + uint64(n),
		storedLen:  uint64(len(stored)),
		rawLen:     uint64(len(raw)),
		flags:      flags,
		firstPoly:  sw.polys,
		polys:      uint64(set.Len()),
		mons:       uint64(mons),
		crc:        crc32.ChecksumIEEE(stored),
	})
	sw.off += uint64(n) + uint64(len(stored))
	sw.polys += uint64(set.Len())
	return nil
}

// Close writes the footer index and trailer, then flushes. The writer
// must not be used afterwards. Close does not close the underlying
// io.Writer.
func (sw *SetWriterV3) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	footer := binary.AppendUvarint(nil, uint64(len(sw.index)))
	for _, sh := range sw.index {
		footer = binary.AppendUvarint(footer, sh.payloadOff)
		footer = binary.AppendUvarint(footer, sh.storedLen)
		footer = binary.AppendUvarint(footer, sh.rawLen)
		footer = append(footer, sh.flags)
		footer = binary.AppendUvarint(footer, sh.firstPoly)
		footer = binary.AppendUvarint(footer, sh.polys)
		footer = binary.AppendUvarint(footer, sh.mons)
		footer = binary.LittleEndian.AppendUint32(footer, sh.crc)
	}
	footer = binary.AppendUvarint(footer, uint64(len(sw.names)))
	for _, n := range sw.names {
		footer = binary.AppendUvarint(footer, uint64(len(n)))
		footer = append(footer, n...)
	}
	footerOff := sw.off
	if err := sw.bw.WriteByte(frameFooter); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(footer)))
	if _, err := sw.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := sw.bw.Write(footer); err != nil {
		return err
	}
	var trailer [v3TrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], footerOff)
	copy(trailer[8:], v3TailMagic)
	if _, err := sw.bw.Write(trailer[:]); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// WriteSetStreamV3 writes any SetSource as a v3 stream, one frame per
// shard, loading spilled shards one at a time, so the resident footprint
// stays within the source's budget: an in-memory Set writes as a single
// frame, a ShardedSet one frame per shard. WriteSet(FormatBinary) is this
// with compression on.
func WriteSetStreamV3(w io.Writer, src polynomial.SetSource, opts V3Options) error {
	sw, err := NewSetWriterV3(w, opts)
	if err != nil {
		return err
	}
	err = src.ForEachShard(func(_, _ int, s *polynomial.Set) error {
		return sw.WriteShard(s)
	})
	if err != nil {
		return err
	}
	return sw.Close()
}

// appendV3Payload encodes one shard as a v3 payload appended to dst,
// returning the buffer, the shard's used-variable names in local-index
// order, and the monomial count. Non-canonical monomials (unsorted or
// duplicate variables) and non-positive exponents are rejected: the delta
// encoding requires strictly ascending variables.
func appendV3Payload(dst []byte, set *polynomial.Set) ([]byte, []string, int, error) {
	varNames, local, err := usedVarTable(set)
	if err != nil {
		return nil, nil, 0, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(varNames)))
	for _, n := range varNames {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	nMons, nTerms, keyBytes := 0, 0, 0
	for i := range set.Polys {
		p := &set.Polys[i]
		nMons += len(p.Mons)
		nTerms += p.NumTerms()
		keyBytes += len(set.Keys[i])
	}
	dst = binary.AppendUvarint(dst, uint64(set.Len()))
	dst = binary.AppendUvarint(dst, uint64(nMons))
	dst = binary.AppendUvarint(dst, uint64(nTerms))
	dst = binary.AppendUvarint(dst, uint64(keyBytes))
	for _, key := range set.Keys {
		dst = append(dst, key...)
	}
	for _, key := range set.Keys {
		dst = binary.AppendUvarint(dst, uint64(len(key)))
	}
	for i := range set.Polys {
		dst = binary.AppendUvarint(dst, uint64(len(set.Polys[i].Mons)))
	}
	var rawCoefs []uint64
	for i := range set.Polys {
		for _, m := range set.Polys[i].Mons {
			dst, rawCoefs = appendV3Coef(dst, m.Coef, rawCoefs)
		}
	}
	// Raw coefficients go in one contiguous block after the marker column
	// instead of inline between markers: LZ77 match distances between
	// structurally similar floats stay byte-aligned multiples of 8, which
	// measurably beats interleaving (and beats byte-plane or XOR-delta
	// transposes, which destroy the cross-float matches) on provenance
	// coefficients.
	for _, bits := range rawCoefs {
		dst = binary.LittleEndian.AppendUint64(dst, bits)
	}
	for i := range set.Polys {
		for _, m := range set.Polys[i].Mons {
			dst = binary.AppendUvarint(dst, uint64(len(m.Terms)))
		}
	}
	for i := range set.Polys {
		for _, m := range set.Polys[i].Mons {
			prev := int32(-1)
			for _, t := range m.Terms {
				lv := local[t.Var]
				if lv <= prev {
					return nil, nil, 0, fmt.Errorf("polyio: v3 requires canonical monomials (variables strictly ascending; %q repeats or reorders)", set.Names.Name(t.Var))
				}
				if t.Exp <= 0 {
					return nil, nil, 0, fmt.Errorf("polyio: non-positive exponent %d on variable %q", t.Exp, set.Names.Name(t.Var))
				}
				if prev < 0 {
					dst = binary.AppendUvarint(dst, uint64(lv))
				} else {
					dst = binary.AppendUvarint(dst, uint64(lv-prev-1))
				}
				dst = binary.AppendUvarint(dst, uint64(t.Exp-1))
				prev = lv
			}
		}
	}
	return dst, varNames, nMons, nil
}

// appendV3Coef encodes one coefficient marker: exact integers with
// |i| <= 2^51 become a zigzag uvarint (even marker values); everything
// else — huge, fractional, NaN, negative zero — gets marker 1 and its
// raw float64 bits appended to raw, for the byte-plane block that
// follows the marker column. Every float64 bit pattern round-trips
// exactly.
func appendV3Coef(dst []byte, c float64, raw []uint64) ([]byte, []uint64) {
	if c == math.Trunc(c) && c >= -(1<<51) && c <= 1<<51 {
		i := int64(c)
		if math.Float64bits(float64(i)) == math.Float64bits(c) {
			z := uint64((i << 1) ^ (i >> 63)) // zigzag
			return binary.AppendUvarint(dst, z<<1), raw
		}
	}
	return binary.AppendUvarint(dst, 1), append(raw, math.Float64bits(c))
}

// v3payloadReader decodes one raw (decompressed) shard payload from an
// in-memory byte slice.
type v3payloadReader struct {
	data  []byte
	pos   int
	shard int // for error attribution
}

func (r *v3payloadReader) corrupt(format string, args ...any) error {
	return corruptf("shard payload", r.shard, format, args...)
}

func (r *v3payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.corrupt("bad varint at byte %d: %w", r.pos, io.ErrUnexpectedEOF)
	}
	r.pos += n
	return v, nil
}

// count reads a uvarint bounded by max and by the payload size: no field
// can legitimately claim more entries than there are payload bytes, so a
// corrupt count fails here instead of provoking a huge allocation.
func (r *v3payloadReader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max || v > uint64(len(r.data)) {
		return 0, r.corrupt("%s count %d out of range", what, v)
	}
	return int(v), nil
}

// decodeV3Payload decodes one raw shard payload into a PackedSet over
// names. When lookupOnly is set, variable names must already be interned
// (the indexed reader pre-interns the footer table, which makes
// concurrent shard decodes race-free); otherwise names are interned on
// first use, exactly like a v1/v2 read. termScratch is reused between
// calls; pass nil to let the decoder allocate.
func decodeV3Payload(data []byte, names *polynomial.Names, shard int, lookupOnly bool, termScratch []polynomial.Term) (*polynomial.PackedSet, []polynomial.Term, error) {
	r := &v3payloadReader{data: data, shard: shard}
	nVars, err := r.count("variable", 1<<28)
	if err != nil {
		return nil, termScratch, err
	}
	remap := make([]polynomial.Var, nVars)
	monotone := true // remap preserves the writer's variable order
	for i := range remap {
		n, err := r.count("name byte", 1<<24)
		if err != nil {
			return nil, termScratch, err
		}
		if r.pos+n > len(data) {
			return nil, termScratch, r.corrupt("name %d overruns payload: %w", i, io.ErrUnexpectedEOF)
		}
		nameBytes := data[r.pos : r.pos+n]
		r.pos += n
		if lookupOnly {
			v, ok := names.Lookup(string(nameBytes))
			if !ok {
				return nil, termScratch, r.corrupt("variable %q not in the footer name table", nameBytes)
			}
			remap[i] = v
		} else {
			remap[i] = names.VarBytes(nameBytes)
		}
		if i > 0 && remap[i] <= remap[i-1] {
			monotone = false
		}
	}
	nPolys, err := r.count("polynomial", math.MaxInt32)
	if err != nil {
		return nil, termScratch, err
	}
	nMons, err := r.count("monomial", math.MaxInt32)
	if err != nil {
		return nil, termScratch, err
	}
	nTerms, err := r.count("term", math.MaxInt32)
	if err != nil {
		return nil, termScratch, err
	}
	keyBytes, err := r.count("key byte", math.MaxInt32)
	if err != nil {
		return nil, termScratch, err
	}
	if r.pos+keyBytes > len(data) {
		return nil, termScratch, r.corrupt("key block overruns payload: %w", io.ErrUnexpectedEOF)
	}
	keyBlock := string(data[r.pos : r.pos+keyBytes])
	r.pos += keyBytes

	keyLens := make([]int, nPolys)
	sumKeys := 0
	for i := range keyLens {
		n, err := r.count("key length", uint64(keyBytes))
		if err != nil {
			return nil, termScratch, err
		}
		keyLens[i] = n
		sumKeys += n
	}
	if sumKeys != keyBytes {
		return nil, termScratch, r.corrupt("key lengths sum to %d, key block holds %d bytes", sumKeys, keyBytes)
	}
	monCounts := make([]int, nPolys)
	sumMons := 0
	for i := range monCounts {
		n, err := r.count("monomial", uint64(nMons))
		if err != nil {
			return nil, termScratch, err
		}
		monCounts[i] = n
		sumMons += n
	}
	if sumMons != nMons {
		return nil, termScratch, r.corrupt("per-polynomial monomial counts sum to %d, shard declares %d", sumMons, nMons)
	}
	coefs := make([]float64, nMons)
	var rawIdx []int32
	for i := range coefs {
		c, err := r.uvarint()
		if err != nil {
			return nil, termScratch, err
		}
		switch {
		case c&1 == 0:
			z := c >> 1
			coefs[i] = float64(int64(z>>1) ^ -int64(z&1)) // unzigzag
		case c == 1:
			rawIdx = append(rawIdx, int32(i))
		default:
			return nil, termScratch, r.corrupt("bad coefficient marker %d", c)
		}
	}
	// Read the raw coefficients from the contiguous float block.
	nRaw := len(rawIdx)
	if r.pos+8*nRaw > len(data) {
		return nil, termScratch, r.corrupt("raw coefficient block overruns payload: %w", io.ErrUnexpectedEOF)
	}
	for _, mi := range rawIdx {
		coefs[mi] = math.Float64frombits(binary.LittleEndian.Uint64(data[r.pos:]))
		r.pos += 8
	}
	termCounts := make([]int, nMons)
	sumTerms := 0
	for i := range termCounts {
		n, err := r.count("term", uint64(nTerms))
		if err != nil {
			return nil, termScratch, err
		}
		termCounts[i] = n
		sumTerms += n
	}
	if sumTerms != nTerms {
		return nil, termScratch, r.corrupt("per-monomial term counts sum to %d, shard declares %d", sumTerms, nTerms)
	}

	ps := polynomial.NewPackedSet(names)
	ps.Grow(nPolys, nMons, nTerms)
	if c := cap(termScratch); c < 64 {
		termScratch = make([]polynomial.Term, 0, 256)
	}
	// readTerms delta-decodes one monomial's term vector into dst. The
	// stored local indices are strictly ascending by construction of the
	// delta encoding; the remapped Vars are ascending only when the remap
	// is monotone.
	readTerms := func(count int, dst []polynomial.Term) ([]polynomial.Term, error) {
		local := int64(-1)
		for ti := 0; ti < count; ti++ {
			dv, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			if local < 0 {
				local = int64(dv)
			} else {
				local += int64(dv) + 1
			}
			if local >= int64(nVars) {
				return dst, r.corrupt("variable index %d out of range [0,%d)", local, nVars)
			}
			e, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			if e >= math.MaxInt32 {
				return dst, r.corrupt("bad exponent %d", e+1)
			}
			dst = append(dst, polynomial.TExp(remap[local], int32(e+1)))
		}
		return dst, nil
	}
	mon := 0
	keyPos := 0
	var monScratch []polynomial.Monomial
	for pi := 0; pi < nPolys; pi++ {
		ps.BeginPoly(keyBlock[keyPos : keyPos+keyLens[pi]])
		keyPos += keyLens[pi]
		if monotone {
			// Fast path: the remap preserves variable order, so the stored
			// canonical form IS the canonical form over names.
			for mi := 0; mi < monCounts[pi]; mi++ {
				terms, err := readTerms(termCounts[mon], termScratch[:0])
				termScratch = terms[:0]
				if err != nil {
					return nil, termScratch, err
				}
				ps.AppendMonomial(coefs[mon], terms)
				mon++
			}
			continue
		}
		// The remap reorders variables (reading into a namespace whose ids
		// were interned in a different order), so re-canonicalize exactly
		// like the v1/v2 readers do through Builder: sort each monomial's
		// terms, then the polynomial's monomials. Merging is unnecessary —
		// the writer encoded a canonical polynomial and the remap is a
		// bijection on its variables — but a corrupt table can alias two
		// names to one Var, which surfaces here as a duplicate.
		monScratch = monScratch[:0]
		for mi := 0; mi < monCounts[pi]; mi++ {
			terms, err := readTerms(termCounts[mon], make([]polynomial.Term, 0, termCounts[mon]))
			if err != nil {
				return nil, termScratch, err
			}
			sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
			for t := 1; t < len(terms); t++ {
				if terms[t].Var == terms[t-1].Var {
					return nil, termScratch, r.corrupt("shard name table aliases two names to variable %d", terms[t].Var)
				}
			}
			monScratch = append(monScratch, polynomial.Monomial{Coef: coefs[mon], Terms: terms})
			mon++
		}
		sort.Slice(monScratch, func(a, b int) bool {
			return polynomial.CompareTerms(monScratch[a].Terms, monScratch[b].Terms) < 0
		})
		for mi := range monScratch {
			if mi > 0 && polynomial.CompareTerms(monScratch[mi-1].Terms, monScratch[mi].Terms) == 0 {
				return nil, termScratch, r.corrupt("polynomial %d repeats a monomial after remapping", pi)
			}
			ps.AppendMonomial(monScratch[mi].Coef, monScratch[mi].Terms)
		}
	}
	if r.pos != len(data) {
		return nil, termScratch, r.corrupt("%d trailing bytes after the last monomial", len(data)-r.pos)
	}
	return ps, termScratch, nil
}

// inflateV3 decompresses a DEFLATE-framed shard payload, verifying the
// decompressed size matches the frame's rawLen exactly.
func inflateV3(stored []byte, rawLen int, shard int) ([]byte, error) {
	// DEFLATE expands at most 1032:1, so a larger claim is corrupt — and
	// not worth allocating for.
	if rawLen > 1032*len(stored)+64 {
		return nil, corruptf("deflate payload", shard, "%d stored bytes cannot inflate to the declared %d", len(stored), rawLen)
	}
	fr := flate.NewReader(bytes.NewReader(stored))
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, corruptf("deflate payload", shard, "inflating: %w", err)
	}
	// The payload must end exactly at rawLen: trailing compressed data
	// means the frame header lies about the size.
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, corruptf("deflate payload", shard, "payload inflates past its declared %d bytes", rawLen)
	}
	if err := fr.Close(); err != nil {
		return nil, corruptf("deflate payload", shard, "closing inflater: %w", err)
	}
	return raw, nil
}

// parseV3Footer parses a footer payload into the index entries and the
// global name table.
func parseV3Footer(data []byte) ([]v3Shard, []string, error) {
	pos := 0
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, corruptf("footer", -1, "bad varint at byte %d: %w", pos, io.ErrUnexpectedEOF)
		}
		pos += n
		return v, nil
	}
	nShards, err := uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nShards > uint64(len(data)) {
		return nil, nil, corruptf("footer", -1, "shard count %d out of range", nShards)
	}
	shards := make([]v3Shard, nShards)
	for i := range shards {
		sh := &shards[i]
		if sh.payloadOff, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if sh.storedLen, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if sh.rawLen, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if pos >= len(data) {
			return nil, nil, corruptf("footer", -1, "truncated at shard %d flags: %w", i, io.ErrUnexpectedEOF)
		}
		sh.flags = data[pos]
		pos++
		if sh.firstPoly, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if sh.polys, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if sh.mons, err = uvarint(); err != nil {
			return nil, nil, err
		}
		if pos+4 > len(data) {
			return nil, nil, corruptf("footer", -1, "truncated at shard %d checksum: %w", i, io.ErrUnexpectedEOF)
		}
		sh.crc = binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		if sh.storedLen > v3MaxShardBytes || sh.rawLen > v3MaxShardBytes {
			return nil, nil, corruptf("footer", i, "shard claims %d stored / %d raw bytes (max %d)", sh.storedLen, sh.rawLen, v3MaxShardBytes)
		}
		if sh.flags&^byte(v3FlagDeflate) != 0 {
			return nil, nil, corruptf("footer", i, "unknown shard flags %#x", sh.flags)
		}
		if sh.flags&v3FlagDeflate == 0 && sh.storedLen != sh.rawLen {
			return nil, nil, corruptf("footer", i, "uncompressed shard stores %d bytes but declares %d raw", sh.storedLen, sh.rawLen)
		}
	}
	nNames, err := uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nNames > uint64(len(data)) {
		return nil, nil, corruptf("footer", -1, "name count %d out of range", nNames)
	}
	names := make([]string, nNames)
	for i := range names {
		n, err := uvarint()
		if err != nil {
			return nil, nil, err
		}
		if n > 1<<24 || pos+int(n) > len(data) {
			return nil, nil, corruptf("footer", -1, "name %d overruns footer: %w", i, io.ErrUnexpectedEOF)
		}
		names[i] = string(data[pos : pos+int(n)])
		pos += int(n)
	}
	if pos != len(data) {
		return nil, nil, corruptf("footer", -1, "%d trailing bytes", len(data)-pos)
	}
	return shards, names, nil
}
