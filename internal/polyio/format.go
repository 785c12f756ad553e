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
	// FormatBinary is the binary encoding: WriteSet writes v3 (framed,
	// compressed and checksummed per shard, indexed by a footer — see
	// v3.go); ReadSet reports it for v3 and for the two superseded
	// versions it still reads, v1 and v2.
	FormatBinary Format = "binary"
)

// Validate returns an error naming the formats unless f is one of them —
// for callers that must reject a format before doing the work of producing
// what it would encode.
func (f Format) Validate() error {
	switch f {
	case FormatText, FormatJSON, FormatBinary:
		return nil
	}
	return fmt.Errorf("polyio: unknown set format %q (want %s, %s or %s)", f, FormatText, FormatJSON, FormatBinary)
}

// WriteSet writes src in the given format. FormatBinary writes one frame
// per shard and never holds more than one shard in memory; text and JSON
// encode the set as a single record, so a source that is not an in-memory
// Set is materialized first.
func WriteSet(w io.Writer, src polynomial.SetSource, f Format) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f == FormatBinary {
		return WriteSetStreamV3(w, src, V3Options{Compress: true})
	}
	set, ok := src.(*polynomial.Set)
	if !ok {
		set = polynomial.NewSet(src.Namespace())
		if err := polynomial.Copy(src, set); err != nil {
			return err
		}
	}
	if f == FormatJSON {
		return WriteSetJSON(w, set)
	}
	return WriteSetText(w, set)
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
	if names == nil {
		names = polynomial.NewNames()
	}
	br := bufio.NewReader(r)
	set := polynomial.NewSet(names)
	f, err := FormatBinary, readBinary(br, names, set.Add)
	if err == errNotBinary {
		head, _ := br.Peek(sniffLen) // a short or failing input is whatever its prefix says; the reader reports the error
		if bytes.HasPrefix(bytes.TrimLeft(head, " \t\r\n"), []byte("{")) {
			f = FormatJSON
			set, err = ReadSetJSON(br, names)
		} else {
			f = FormatText
			set, err = ReadSetText(br, names)
		}
	}
	if err != nil {
		return nil, "", err
	}
	return set, f, nil
}
