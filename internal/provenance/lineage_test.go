package provenance

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// lineageCatalog builds two tuple-annotated tables:
//
//	r(k): r1 -> 1, r2 -> 2
//	s(k, v): s1 -> (1, a), s2 -> (1, b), s3 -> (2, a)
func lineageCatalog(t *testing.T, names *polynomial.Names) engine.Catalog {
	t.Helper()
	r := relation.NewRelation("r", relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
	))
	r.Append(relation.Int(1))
	r.Append(relation.Int(2))
	r, err := AnnotateTuples(r, VarSpec{Prefix: "r", Columns: []string{"k"}}, names)
	if err != nil {
		t.Fatal(err)
	}

	s := relation.NewRelation("s", relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindString},
	))
	s.Append(relation.Int(1), relation.Str("a"))
	s.Append(relation.Int(1), relation.Str("b"))
	s.Append(relation.Int(2), relation.Str("a"))
	// Annotate with distinct variables s1, s2, s3 by row position.
	sAnn := s.Clone()
	for i := range sAnn.Rows {
		sAnn.Rows[i].Ann = polynomial.VarPoly(names.Var([]string{"s1", "s2", "s3"}[i]))
	}
	return engine.Catalog{"r": r, "s": sAnn}
}

func TestCaptureLineageJoin(t *testing.T) {
	names := polynomial.NewNames()
	cat := lineageCatalog(t, names)
	set, err := CaptureLineageN("SELECT r.k, s.v FROM r, s WHERE r.k = s.k ORDER BY r.k, s.v", cat, names, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("rows = %d", set.Len())
	}
	// Row (1, a) derives from r1·s1.
	want := map[string]string{
		"1|a": "r1*s1",
		"1|b": "r1*s2",
		"2|a": "r2*s3",
	}
	for i, key := range set.Keys {
		w := polynomial.MustParse(want[key], names)
		if !polynomial.Equal(set.Polys[i], w) {
			t.Fatalf("%s: lineage %s, want %s", key, set.Polys[i].String(names), want[key])
		}
	}
}

func TestCaptureLineageGroupingAddsAlternatives(t *testing.T) {
	names := polynomial.NewNames()
	cat := lineageCatalog(t, names)
	// Grouping merges alternative derivations: the annotation of a group is
	// the sum of its rows' annotations.
	out, err := CaptureLineageN(
		"SELECT s.v, COUNT(*) AS n FROM r, s WHERE r.k = s.k GROUP BY s.v ORDER BY s.v", cat, names, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Group "a": derivations r1·s1 + r2·s3. The COUNT column also reflects
	// the symbolic multiplicity; the tuple annotation is what we check.
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	aKey := out.Keys[0]
	got, _ := out.Poly(aKey)
	want := polynomial.MustParse("r1*s1 + r2*s3", names)
	if !polynomial.Equal(got, want) {
		t.Fatalf("lineage of group a = %s, want %s", got.String(names), want.String(names))
	}
}
