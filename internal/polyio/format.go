package polyio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Format names a set encoding. ReadSet detects it from the first bytes of
// a stream; WriteSet takes it as an argument.
type Format string

const (
	// FormatText is the human-readable "key<TAB>polynomial" line format.
	FormatText Format = "text"
	// FormatJSON is the JSON encoding.
	FormatJSON Format = "json"
	// FormatBinary is the compact v1 binary encoding: the whole set as one
	// record.
	FormatBinary Format = "binary"
	// FormatStream is the framed binary encoding, one frame per shard, for
	// sets larger than memory. WriteSet writes v2; ReadSet reports it for
	// v2 and v3 streams alike.
	FormatStream Format = "stream"
)

// WriteSet writes src in the given format. FormatStream writes one frame
// per shard and never holds more than one shard in memory; the other three
// encode the set as a single record, so a source that is not an in-memory
// Set is materialized first.
func WriteSet(w io.Writer, src polynomial.SetSource, f Format) error {
	var write func(io.Writer, *polynomial.Set) error
	switch f {
	case FormatStream:
		return WriteSetStream(w, src)
	case FormatText:
		write = WriteSetText
	case FormatJSON:
		write = WriteSetJSON
	case FormatBinary:
		write = WriteSetBinary
	default:
		return fmt.Errorf("polyio: unknown set format %q", f)
	}
	set, ok := src.(*polynomial.Set)
	if !ok {
		set = polynomial.NewSet(src.Namespace())
		if err := polynomial.Copy(src, set); err != nil {
			return err
		}
	}
	return write(w, set)
}

// sniffLen is how far ReadSet looks for the first non-blank byte when the
// input does not start with a binary magic.
const sniffLen = 512

// ReadSet reads a set in any encoding into memory, interning variables into
// names (a fresh namespace if nil), and reports which encoding it found. The
// binary encodings are recognized by their magic (v1, v2 and v3); otherwise
// input whose first non-blank byte is '{' is JSON and everything else is
// text. To read a stream larger than memory use ReadSetStream.
func ReadSet(r io.Reader, names *polynomial.Names) (*polynomial.Set, Format, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(sniffLen) // a short or failing input is whatever its prefix says; the reader reports the error
	f, read := FormatText, ReadSetText
	switch {
	case bytes.HasPrefix(head, binaryMagic):
		f, read = FormatBinary, ReadSetBinary
	case bytes.HasPrefix(head, streamMagic), bytes.HasPrefix(head, v3Magic):
		f, read = FormatStream, ReadSetBinary
	case bytes.HasPrefix(bytes.TrimLeft(head, " \t\r\n"), []byte("{")):
		f, read = FormatJSON, ReadSetJSON
	}
	set, err := read(br, names)
	if err != nil {
		return nil, "", err
	}
	return set, f, nil
}
