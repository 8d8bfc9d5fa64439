package classify_test

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/value"
	"repro/internal/workload"
)

// cat builds the paper's catalogs.
func cat(t *testing.T) *schema.Catalog {
	t.Helper()
	c := schema.NewCatalog()
	rels := []*schema.Relation{
		{Name: "S", Columns: []schema.Column{
			{Name: "SNO", Type: value.KindString}, {Name: "SNAME", Type: value.KindString},
			{Name: "STATUS", Type: value.KindInt}, {Name: "CITY", Type: value.KindString}}},
		{Name: "P", Columns: []schema.Column{
			{Name: "PNO", Type: value.KindString}, {Name: "PNAME", Type: value.KindString},
			{Name: "WEIGHT", Type: value.KindInt}, {Name: "CITY", Type: value.KindString}}},
		{Name: "SP", Columns: []schema.Column{
			{Name: "SNO", Type: value.KindString}, {Name: "PNO", Type: value.KindString},
			{Name: "QTY", Type: value.KindInt}, {Name: "ORIGIN", Type: value.KindString}}},
	}
	for _, r := range rels {
		if err := c.Define(r); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// classifyFirst resolves the query and classifies its first predicate.
func classifyFirst(t *testing.T, src string) classify.NestType {
	t.Helper()
	qb := sqlparser.MustParse(src)
	if _, err := schema.Resolve(cat(t), qb); err != nil {
		t.Fatal(err)
	}
	return classify.Classify(qb.Where[0])
}

// The four canonical examples of section 2.
func TestClassifyPaperExamples(t *testing.T) {
	cases := []struct {
		src  string
		want classify.NestType
	}{
		// Example 2: type-A.
		{"SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)", classify.TypeA},
		// Example 3: type-N.
		{"SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50)", classify.TypeN},
		// Example 4: type-J.
		{"SELECT SNAME FROM S WHERE SNO IS IN (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)", classify.TypeJ},
		// Example 5: type-JA.
		{"SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)", classify.TypeJA},
	}
	for _, c := range cases {
		if got := classifyFirst(t, c.src); got != c.want {
			t.Errorf("%q: %v, want %v", c.src, got, c.want)
		}
	}
}

func TestClassifyNotNested(t *testing.T) {
	if got := classifyFirst(t, "SELECT SNO FROM SP WHERE QTY > 100"); got != classify.NotNested {
		t.Errorf("simple predicate = %v", got)
	}
}

// Correlation anywhere in the subtree makes the predicate type-J/JA, even
// when the join predicate sits below another nesting level (the section
// 9.1 trans-aggregate situation).
func TestClassifyDeepCorrelation(t *testing.T) {
	got := classifyFirst(t, `
		SELECT SNAME FROM S
		WHERE STATUS = (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`)
	if got != classify.TypeJA {
		t.Errorf("deep correlation = %v, want type-JA", got)
	}
	got = classifyFirst(t, `
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP
		              WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`)
	if got != classify.TypeJ {
		t.Errorf("deep correlation without aggregate = %v, want type-J", got)
	}
}

func TestNestTypeStrings(t *testing.T) {
	want := map[classify.NestType]string{
		classify.NotNested: "not nested",
		classify.TypeA:     "type-A",
		classify.TypeN:     "type-N",
		classify.TypeJ:     "type-J",
		classify.TypeJA:    "type-JA",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
	if !strings.Contains(classify.NestType(99).String(), "99") {
		t.Error("unknown type string")
	}
}

func TestProfile(t *testing.T) {
	qb := sqlparser.MustParse(`
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY) AND
		      STATUS = (SELECT MAX(WEIGHT) FROM P)`)
	if _, err := schema.Resolve(cat(t), qb); err != nil {
		t.Fatal(err)
	}
	prof := classify.Profile(qb)
	if prof.Blocks != 3 || prof.MaxDepth != 1 {
		t.Errorf("profile = %+v", prof)
	}
	if len(prof.Types) != 2 || prof.Types[0] != classify.TypeJ || prof.Types[1] != classify.TypeA {
		t.Errorf("types = %v", prof.Types)
	}
}

// Kiessling's Q2 has one type-JA predicate over a two-block tree.
func TestClassifyAndProfile(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadKiessling(db); err != nil {
		t.Fatal(err)
	}
	qb := sqlparser.MustParse(workload.KiesslingQ2)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	if got := classify.Classify(qb.Where[0]); got != classify.TypeJA {
		t.Errorf("classify = %v", got)
	}
	prof := classify.Profile(qb)
	if prof.Blocks != 2 || prof.MaxDepth != 1 {
		t.Errorf("profile = %+v", prof)
	}
}
