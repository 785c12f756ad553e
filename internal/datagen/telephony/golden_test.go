//go:build amd64 && !amd64.v3

// The digests below pin the generators' floating-point output bit for bit.
// A price is a multiply-add (basePrice × (0.8 + 0.1·k)), and so is every
// coefficient DirectProvenance accumulates; a build that fuses multiply-adds
// (arm64, or amd64 at GOAMD64=v3) rounds them once instead of twice, so the
// pins hold where they were taken: amd64 below v3.

package telephony

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// catalogDigest is the SHA-256 of every relation of cat in name order: its
// name, its schema, and each row's cells (kind, then the integer, the
// float's bits or the string). It fails the test if a row's annotation is
// not the shared polynomial.One(), or if appending to a row's cells could
// write into the next row's.
func catalogDigest(t *testing.T, cat engine.Catalog) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putStr := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	one := polynomial.One()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := cat[name]
		putStr(r.Name)
		for _, c := range r.Schema.Cols {
			putStr(c.Name)
			put(uint64(c.Kind))
		}
		put(uint64(len(r.Rows)))
		for i, row := range r.Rows {
			if len(row.Ann.Mons) != 1 || &row.Ann.Mons[0] != &one.Mons[0] {
				t.Fatalf("%s row %d: annotation is not the shared polynomial.One()", name, i)
			}
			if cap(row.Values) != len(row.Values) {
				t.Fatalf("%s row %d: cells have capacity %d beyond their %d", name, i, cap(row.Values), len(row.Values))
			}
			put(uint64(len(row.Values)))
			for _, v := range row.Values {
				put(uint64(v.Kind()))
				switch v.Kind() {
				case relation.KindInt:
					put(uint64(v.I()))
				case relation.KindFloat:
					put(math.Float64bits(v.F()))
				case relation.KindString:
					putStr(v.S())
				default:
					t.Fatalf("%s row %d: unexpected cell kind %v", name, i, v.Kind())
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setDigest is the SHA-256 of a set's keys, and of each monomial's
// coefficient bits and terms, in order.
func setDigest(s *polynomial.Set) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, key := range s.Keys {
		put(uint64(len(key)))
		h.Write([]byte(key))
		put(uint64(len(s.Polys[i].Mons)))
		for _, m := range s.Polys[i].Mons {
			put(math.Float64bits(m.Coef))
			put(uint64(len(m.Terms)))
			for _, tm := range m.Terms {
				put(uint64(tm.Var))
				put(uint64(tm.Exp))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's catalog: the same rows, cells and
// order at three scales, the defaults' 10 000 customers included.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Customers: 200, Zips: 3, Months: 4}, "9a1558fffbc93d44b55310bedcb8c577f250673aec8561e13716221036b9ccb6"},
		{Config{Customers: 2_500}, "74c3e7906df900a45cf1efebb0c642af329e223476bf0b24ec4a805c8ec24d55"},
		{Config{}, "f61366dd464e3c3a3fe2f2160e24f33b788b51af0f2a51e3d05adae7e9e5e32f"},
	} {
		if got := catalogDigest(t, Generate(tc.cfg)); got != tc.want {
			t.Errorf("Generate(%+v) digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}

// TestDirectProvenanceGolden pins DirectProvenance's set bit for bit: the
// keys, and every coefficient's Float64bits and terms, in order.
func TestDirectProvenanceGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Customers: 500, Zips: 4, Months: 6}, "1ad80144a71667762c20994d014cabda53821fb8cf71a1a5e4f6300221779cda"},
		{Config{Customers: 20_000}, "a8179b50a1fdfa5af64a579b5e7e0f78ba6b1aee10588e7a2b01068daf277db5"},
		{Config{Customers: 200_000}, "311189ed133418d8d47020cd522d224850a47b89fdee6789612e45693a7f3c36"},
	} {
		if got := setDigest(DirectProvenance(tc.cfg, polynomial.NewNames())); got != tc.want {
			t.Errorf("DirectProvenance(%+v) digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
