package polyio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// This file is the one sequential reader of the binary encodings. v3 is
// the format WriteSet writes (v3.go); v1 and v2 are read-only legacy:
//
//	v1  magic "CPRVB1\n", then one body: a variable-name table, then the
//	    polynomials with varint terms referencing table indices (files
//	    from before the used-variables-only table carry the whole namespace
//	    and raw Var ids; they read the same way)
//	v2  magic "CPRVB2\n", then framed bodies: 'S' + a v1 body per shard,
//	    each with its own table, and an end frame 'E' + uvarint shard count
//	    (a truncated stream is detected instead of reading fewer shards)
//
// Every body carries its own table, so a reader interns names into the
// target namespace as it goes and variable identity is preserved across
// shards by name.

// binaryMagic and streamMagic identify the v1 and v2 binary set formats.
var (
	binaryMagic = []byte("CPRVB1\n")
	streamMagic = []byte("CPRVB2\n")
)

const (
	frameShard = 'S'
	frameEnd   = 'E'
)

// errNotBinary is readBinary's answer to input that starts with none of
// the binary magics; nothing has been consumed then.
var errNotBinary = errors.New("polyio: not a cobra binary set")

// readExactly reads n bytes into buf's storage, growing it as the bytes
// arrive: a length a stream merely claims allocates nothing the input does
// not back. A short read is io.ErrUnexpectedEOF.
func readExactly(br *bufio.Reader, buf []byte, n uint64) ([]byte, error) {
	buf = buf[:0]
	for uint64(len(buf)) < n {
		chunk := int(min(n-uint64(len(buf)), 1<<16))
		buf = slices.Grow(buf, chunk)
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, unexpectedEOF(err)
		}
	}
	return buf, nil
}

// unexpectedEOF is err, or io.ErrUnexpectedEOF for the io.EOF of a read
// that had to succeed.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readBinary reads one binary set stream of any version, calling add once
// per polynomial in stream order — so a caller can route polynomials
// straight into a budgeted store without materializing a shard, or a v1
// body, which is one long record. It is the only place that tells the
// versions apart. A v3 stream has every shard's checksum and its footer
// index verified against what was read.
func readBinary(br *bufio.Reader, names *polynomial.Names, add func(string, polynomial.Polynomial) error) error {
	magic, _ := br.Peek(len(binaryMagic)) // a short input matches no magic
	switch string(magic) {
	case string(binaryMagic):
		br.Discard(len(magic))
		if err := readLegacyBody(br, names, add); err != nil {
			return fmt.Errorf("polyio: v1 body: %w", err)
		}
		return nil
	case string(streamMagic):
		br.Discard(len(magic))
		return readV2Frames(br, names, add)
	case string(v3Magic):
		br.Discard(len(magic))
		sr := &v3Reader{br: br, names: names, off: uint64(len(v3Magic))}
		for {
			if done, err := sr.nextFrame(add); done || err != nil {
				return err
			}
		}
	default:
		return errNotBinary
	}
}

// readV2Frames reads the frames of a v2 stream up to and including its end
// frame.
func readV2Frames(br *bufio.Reader, names *polynomial.Names, add func(string, polynomial.Polynomial) error) error {
	for shards := uint64(0); ; shards++ {
		marker, err := br.ReadByte()
		if err == io.EOF {
			return fmt.Errorf("polyio: stream truncated before end frame (%d shards read)", shards)
		}
		if err != nil {
			return err
		}
		switch marker {
		case frameShard:
			if err := readLegacyBody(br, names, add); err != nil {
				return fmt.Errorf("polyio: shard frame %d: %w", shards, err)
			}
		case frameEnd:
			want, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("polyio: reading end frame: %w", unexpectedEOF(err))
			}
			if want != shards {
				return fmt.Errorf("polyio: end frame claims %d shards, read %d", want, shards)
			}
			return nil
		default:
			return fmt.Errorf("polyio: unknown frame marker %q", marker)
		}
	}
}

// readLegacyBody reads one v1/v2 body, invoking add once per polynomial in
// order. Every count a body claims is only a claim: nothing is sized from
// one before the bytes behind it have arrived, and a body cut off at a
// field boundary is io.ErrUnexpectedEOF, never a clean io.EOF.
func readLegacyBody(br *bufio.Reader, names *polynomial.Names, add func(string, polynomial.Polynomial) error) (err error) {
	defer func() { err = unexpectedEOF(err) }()
	var strBuf []byte
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<24 {
			return "", fmt.Errorf("polyio: string length %d too large", n)
		}
		strBuf, err = readExactly(br, strBuf, n)
		return string(strBuf), err
	}
	nVars, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nVars > 1<<28 {
		return fmt.Errorf("polyio: variable count %d too large", nVars)
	}
	remap := make([]polynomial.Var, 0, min(nVars, 1<<10))
	for i := uint64(0); i < nVars; i++ {
		name, err := readString()
		if err != nil {
			return err
		}
		remap = append(remap, names.Var(name))
	}
	nPolys, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	var terms []polynomial.Term // Builder.Add copies, so one scratch serves every monomial
	for pi := uint64(0); pi < nPolys; pi++ {
		key, err := readString()
		if err != nil {
			return err
		}
		nMons, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		var b polynomial.Builder
		b.Grow(int(min(nMons, 1<<16)))
		for mi := uint64(0); mi < nMons; mi++ {
			var bits [8]byte
			if _, err := io.ReadFull(br, bits[:]); err != nil {
				return err
			}
			coef := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
			nTerms, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if nTerms > 1<<20 {
				return fmt.Errorf("polyio: monomial claims %d terms", nTerms)
			}
			terms = terms[:0]
			for ti := uint64(0); ti < nTerms; ti++ {
				v, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				e, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				if v >= nVars {
					return fmt.Errorf("polyio: variable index %d out of range", v)
				}
				if e == 0 || e > math.MaxInt32 {
					return fmt.Errorf("polyio: bad exponent %d", e)
				}
				terms = append(terms, polynomial.TExp(remap[v], int32(e)))
			}
			b.Add(coef, terms...)
		}
		if err := add(key, b.Polynomial()); err != nil {
			return err
		}
	}
	return nil
}

// v3Reader is the sequential read state of a v3 stream: it reconstructs
// the footer index from the frames it reads and verifies the stored footer
// against it (for random-access reading of a v3 stream see IndexedSet).
type v3Reader struct {
	br     *bufio.Reader
	names  *polynomial.Names
	shards int

	off     uint64 // bytes consumed so far
	v3index []v3Shard
	v3polys uint64
	v3buf   []byte // reusable stored-payload buffer
	scratch []polynomial.Term
}

// nextFrame reads one v3 frame, reporting done at the verified footer.
// Shard frames are checksummed as they stream past and their geometry is
// remembered; the footer frame is then verified field-by-field against
// what was actually read, and the trailer closes the stream — so a
// sequential read enforces exactly the invariants a random-access reader
// depends on. Every v3 failure is a
// typed error (CorruptError or ChecksumError), never a panic or a silent
// short read.
func (sr *v3Reader) nextFrame(add func(string, polynomial.Polynomial) error) (bool, error) {
	marker, err := sr.br.ReadByte()
	if err != nil {
		return false, corruptf("stream", sr.shards, "truncated before the footer (%d shards read): %w", sr.shards, io.ErrUnexpectedEOF)
	}
	sr.off++
	switch marker {
	case frameShard:
		return false, sr.readShardFrameV3(add)
	case frameFooter:
		return true, sr.readFooterV3()
	default:
		return false, corruptf("stream", sr.shards, "unknown frame marker %q", marker)
	}
}

// v3uvarint reads one uvarint, tracking the byte offset.
func (sr *v3Reader) v3uvarint(section string) (uint64, error) {
	v, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return 0, corruptf(section, sr.shards, "reading varint: %w", unexpectedEOF(err))
	}
	sr.off += uint64(uvarintLen(v))
	return v, nil
}

func (sr *v3Reader) readShardFrameV3(add func(string, polynomial.Polynomial) error) error {
	flags, err := sr.br.ReadByte()
	if err != nil {
		return corruptf("shard frame", sr.shards, "reading flags: %w", io.ErrUnexpectedEOF)
	}
	sr.off++
	if flags&^byte(v3FlagDeflate) != 0 {
		return corruptf("shard frame", sr.shards, "unknown shard flags %#x", flags)
	}
	rawLen, err := sr.v3uvarint("shard frame")
	if err != nil {
		return err
	}
	storedLen, err := sr.v3uvarint("shard frame")
	if err != nil {
		return err
	}
	if rawLen > v3MaxShardBytes || storedLen > v3MaxShardBytes {
		return corruptf("shard frame", sr.shards, "shard claims %d stored / %d raw bytes (max %d)", storedLen, rawLen, v3MaxShardBytes)
	}
	if flags&v3FlagDeflate == 0 && storedLen != rawLen {
		return corruptf("shard frame", sr.shards, "uncompressed shard stores %d bytes but declares %d raw", storedLen, rawLen)
	}
	payloadOff := sr.off
	stored, err := readExactly(sr.br, sr.v3buf, storedLen)
	sr.v3buf = stored
	if err != nil {
		return corruptf("shard frame", sr.shards, "reading %d payload bytes: %w", storedLen, err)
	}
	sr.off += storedLen
	crc := crc32.ChecksumIEEE(stored)
	raw := stored
	if flags&v3FlagDeflate != 0 {
		raw, err = inflateV3(stored, int(rawLen), sr.shards)
		if err != nil {
			return err
		}
	}
	ps, scratch, err := decodeV3Payload(raw, sr.names, sr.shards, false, sr.scratch)
	sr.scratch = scratch
	if err != nil {
		return err
	}
	view := ps.View()
	sr.v3index = append(sr.v3index, v3Shard{
		payloadOff: payloadOff,
		storedLen:  storedLen,
		rawLen:     rawLen,
		flags:      flags,
		firstPoly:  sr.v3polys,
		polys:      uint64(ps.Len()),
		mons:       uint64(ps.Size()),
		crc:        crc,
	})
	sr.v3polys += uint64(ps.Len())
	sr.shards++
	for i, key := range view.Keys {
		if err := add(key, view.Polys[i]); err != nil {
			return err
		}
	}
	return nil
}

// readFooterV3 reads and verifies the footer frame and trailer against the
// shard frames already consumed.
func (sr *v3Reader) readFooterV3() error {
	footerOff := sr.off - 1 // offset of the 'F' marker itself
	flen, err := sr.v3uvarint("footer")
	if err != nil {
		return err
	}
	if flen > v3MaxShardBytes {
		return corruptf("footer", -1, "footer claims %d bytes", flen)
	}
	fbuf, err := readExactly(sr.br, nil, flen)
	if err != nil {
		return corruptf("footer", -1, "reading %d footer bytes: %w", flen, err)
	}
	sr.off += flen
	shards, _, err := parseV3Footer(fbuf)
	if err != nil {
		return err
	}
	if len(shards) != len(sr.v3index) {
		return corruptf("footer", -1, "footer indexes %d shards, stream held %d", len(shards), len(sr.v3index))
	}
	for i := range shards {
		got, want := shards[i], sr.v3index[i]
		if got != want {
			if got.crc != want.crc {
				return &ChecksumError{Shard: i, Want: got.crc, Got: want.crc}
			}
			return corruptf("footer", i, "index entry %+v does not match the shard frame %+v", got, want)
		}
	}
	var trailer [v3TrailerLen]byte
	if _, err := io.ReadFull(sr.br, trailer[:]); err != nil {
		return corruptf("trailer", -1, "reading trailer: %w", unexpectedEOF(err))
	}
	if string(trailer[8:]) != string(v3TailMagic) {
		return corruptf("trailer", -1, "bad tail magic %q", trailer[8:])
	}
	if off := binary.LittleEndian.Uint64(trailer[:8]); off != footerOff {
		return corruptf("trailer", -1, "trailer points at footer offset %d, frame was at %d", off, footerOff)
	}
	return nil
}

// uvarintLen returns the encoded byte length of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ReadSetStream reads a binary set stream (v1, v2 or v3) into a
// ShardedSet under opts, decoding polynomial-at-a-time straight into the
// budgeted store — incoming shards (or a v1 body, which is one long
// record) are never materialized, so the set's MaxResidentMonomials bound
// holds on the read side no matter how the stream was sharded when
// written. To reload a v3 stream without re-spilling — and decode its
// shards in parallel — use OpenIndexedSet instead.
func ReadSetStream(r io.Reader, names *polynomial.Names, opts polynomial.ShardOptions) (*polynomial.ShardedSet, error) {
	if names == nil {
		names = polynomial.NewNames()
	}
	br := bufio.NewReader(r)
	b := polynomial.NewShardBuilder(names, opts)
	defer b.Discard() // release partial spill files on any error path
	if err := readBinary(br, names, b.Add); err != nil {
		if err == errNotBinary {
			head, _ := br.Peek(len(binaryMagic))
			err = fmt.Errorf("%w (magic %q)", err, head)
		}
		return nil, err
	}
	return b.Finish()
}
