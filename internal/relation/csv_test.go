package relation

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

func csvSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "score", Kind: KindFloat},
		Column{Name: "active", Kind: KindBool},
	)
}

func TestCSVRoundTrip(t *testing.T) {
	rel := NewRelation("t", csvSchema())
	rel.Append(Int(1), Str("alice"), Float(3.5), Bool(true))
	rel.Append(Int(2), Str("bob, jr."), Float(-1), Bool(false))
	rel.Append(Null(), Str(""), Null(), Null())

	var buf bytes.Buffer
	if err := WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "t", csvSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rel.Len() {
		t.Fatalf("rows = %d, want %d", back.Len(), rel.Len())
	}
	for i := range rel.Rows {
		for j := range rel.Rows[i].Values {
			a, b := rel.Rows[i].Values[j], back.Rows[i].Values[j]
			if !a.Equal(b) && !(a.IsNull() && b.IsNull()) {
				t.Fatalf("row %d col %d: %s vs %s", i, j, a, b)
			}
		}
	}
}

func TestCSVRejectsSymbolic(t *testing.T) {
	names := polynomial.NewNames()
	rel := NewRelation("t", NewSchema(Column{Name: "p", Kind: KindPoly}))
	rel.Append(Poly(polynomial.MustParse("x", names)))
	if err := WriteCSV(&bytes.Buffer{}, rel); err == nil {
		t.Fatal("symbolic cell should be rejected")
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := csvSchema()
	cases := []string{
		"",                                      // no header
		"wrong,name,score,active\n",             // header mismatch
		"id,name,score,active\nx,a,1,true\n",    // bad int
		"id,name,score,active\n1,a,nope,true\n", // bad float
		"id,name,score,active\n1,a,1,maybe\n",   // bad bool
		"id,name,score,active\n1,a,1\n",         // wrong arity
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "t", s); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", in)
		}
	}
}

func TestReadCSVNullHandling(t *testing.T) {
	in := "id,name,score,active\n,x,,\n"
	rel, err := ReadCSV(strings.NewReader(in), "t", csvSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Rows[0]
	if !row.Values[0].IsNull() || row.Values[1].S() != "x" || !row.Values[2].IsNull() || !row.Values[3].IsNull() {
		t.Fatalf("row = %v", row.Values)
	}
}
