package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func TestParseCreateTable(t *testing.T) {
	stmt, err := ParseStatement(`
		CREATE TABLE PARTS (
			PNUM INTEGER,
			PNAME VARCHAR(20),
			PRICE FLOAT,
			ADDED DATE,
			PRIMARY KEY (PNUM)
		)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTableStmt)
	if !ok {
		t.Fatalf("statement = %T", stmt)
	}
	rel := ct.Relation
	if rel.Name != "PARTS" || len(rel.Columns) != 4 {
		t.Fatalf("relation = %+v", rel)
	}
	wantTypes := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindDate}
	for i, w := range wantTypes {
		if rel.Columns[i].Type != w {
			t.Errorf("column %d type = %v, want %v", i, rel.Columns[i].Type, w)
		}
	}
	if len(rel.Key) != 1 || rel.Key[0] != "PNUM" {
		t.Errorf("key = %v", rel.Key)
	}
}

func TestParseCreateTableCompositeKey(t *testing.T) {
	stmt, err := ParseStatement(`CREATE TABLE SP (SNO INT, PNO INT, PRIMARY KEY (SNO, PNO))`)
	if err != nil {
		t.Fatal(err)
	}
	rel := stmt.(*CreateTableStmt).Relation
	if len(rel.Key) != 2 {
		t.Errorf("key = %v", rel.Key)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := ParseStatement(`
		INSERT INTO SUPPLY VALUES (3, 4, 7-3-79), (10, NULL, '1-1-80'), (-1, 2.5, 'text')`)
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := stmt.(*InsertStmt)
	if !ok {
		t.Fatalf("statement = %T", stmt)
	}
	if ins.Table != "SUPPLY" || len(ins.Rows) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[0][2].Kind() != value.KindDate {
		t.Errorf("bare date literal = %v", ins.Rows[0][2])
	}
	if !ins.Rows[1][1].IsNull() {
		t.Errorf("NULL literal = %v", ins.Rows[1][1])
	}
	if ins.Rows[1][2].Kind() != value.KindDate {
		t.Errorf("quoted date literal = %v", ins.Rows[1][2])
	}
	if ins.Rows[2][0].Int() != -1 || ins.Rows[2][1].Float() != 2.5 || ins.Rows[2][2].Str() != "text" {
		t.Errorf("literals = %v", ins.Rows[2])
	}
}

func TestParseScriptMixed(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE T (X INT);
		INSERT INTO T VALUES (1), (2);
		SELECT X FROM T WHERE X > 1;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
	if _, ok := stmts[0].(*CreateTableStmt); !ok {
		t.Errorf("stmt 0 = %T", stmts[0])
	}
	if _, ok := stmts[1].(*InsertStmt); !ok {
		t.Errorf("stmt 1 = %T", stmts[1])
	}
	if _, ok := stmts[2].(*SelectStmt); !ok {
		t.Errorf("stmt 2 = %T", stmts[2])
	}
}

func TestParseDropTable(t *testing.T) {
	stmt, err := ParseStatement("DROP TABLE STAGING__X7")
	if err != nil {
		t.Fatal(err)
	}
	dt, ok := stmt.(*DropTableStmt)
	if !ok {
		t.Fatalf("statement = %T", stmt)
	}
	if dt.Table != "STAGING__X7" {
		t.Errorf("table = %q", dt.Table)
	}
	// The rendered form must parse back (the WAL and the cluster
	// coordinator both round-trip statements through text).
	back, err := ParseStatement(dt.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", dt.String(), err)
	}
	if back.(*DropTableStmt).Table != dt.Table {
		t.Errorf("round-trip = %+v", back)
	}
}

// TestRenderUpdateRoundTrip: the WAL logs UPDATE statements as text and
// replays them by re-parsing, so renderLiteral must emit every literal in
// a form the lexer reads back to the same value — doubled quotes, NULL,
// fractions, negatives, a date-like string, and a DATE value (which may
// return as its ISO string, for the engine's column coercion to read).
func TestRenderUpdateRoundTrip(t *testing.T) {
	src := `UPDATE T SET A = 1, B = NULL, C = 2.5, D = 'it''s', E = '1-1-80', F = -3, G = 0, H = 0.25 WHERE A < 9`
	stmt, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStmt)
	d, err := value.ParseDate("1-1-80")
	if err != nil {
		t.Fatal(err)
	}
	up.Set = append(up.Set, SetClause{Column: "I", Val: value.NewDateValue(d)})
	back, err := ParseStatement(up.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", up.String(), err)
	}
	up2 := back.(*UpdateStmt)
	if len(up2.Set) != len(up.Set) || len(up2.Where) != len(up.Where) {
		t.Fatalf("round trip of %q = %+v", up.String(), up2)
	}
	for i, sc := range up.Set {
		got := up2.Set[i].Val
		if sc.Val.Kind() == value.KindDate && got.Kind() == value.KindString {
			gd, err := value.ParseDate(got.Str())
			if err != nil || !value.NewDateValue(gd).Equal(sc.Val) {
				t.Errorf("set %s: %v does not parse back to %v (%v)", sc.Column, got, sc.Val, err)
			}
			continue
		}
		if up2.Set[i].Column != sc.Column || (!got.Equal(sc.Val) && !(got.IsNull() && sc.Val.IsNull())) {
			t.Errorf("set %s: %v != %v", sc.Column, got, sc.Val)
		}
	}
}

func TestParseStatementErrors(t *testing.T) {
	cases := []string{
		"",
		"ALTER TABLE T",                            // unsupported verb
		"DROP T",                                   // missing TABLE
		"DROP TABLE",                               // missing name
		"DROP TABLE 7",                             // non-ident name
		"CREATE T (X INT)",                         // missing TABLE
		"CREATE TABLE (X INT)",                     // missing name
		"CREATE TABLE T X INT",                     // missing paren
		"CREATE TABLE T (X BLOB)",                  // unknown type
		"CREATE TABLE T (X INT",                    //                  unclosed
		"CREATE TABLE T (X INT, PRIMARY KEY X)",    // key without parens
		"CREATE TABLE T (X VARCHAR(abc))",          // bad length
		"INSERT T VALUES (1)",                      // missing INTO
		"INSERT INTO T (1)",                        // missing VALUES
		"INSERT INTO T VALUES 1",                   // missing paren
		"INSERT INTO T VALUES (X)",                 // non-literal
		"INSERT INTO T VALUES (1) SELECT X FROM T", // missing semicolon
		"SELECT X FROM T; SELECT Y FROM U",         // two statements to ParseStatement
	}
	for _, src := range cases {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
}

func TestParseScriptSemicolons(t *testing.T) {
	stmts, err := ParseScript(";;SELECT X FROM T;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Errorf("statements = %d", len(stmts))
	}
	if _, err := ParseScript(";;"); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty script: %v", err)
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	stmt, err := ParseStatement("DELETE FROM T WHERE X > 3 AND Y IN (SELECT Z FROM U)")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table != "T" || len(del.Where) != 2 {
		t.Errorf("delete = %+v", del)
	}
	stmt, err = ParseStatement("DELETE FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if del := stmt.(*DeleteStmt); del.Where != nil {
		t.Errorf("unfiltered delete = %+v", del)
	}

	stmt, err = ParseStatement("UPDATE T SET A = 1, B = 'x', C = NULL WHERE A < 9")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStmt)
	if up.Table != "T" || len(up.Set) != 3 || len(up.Where) != 1 {
		t.Errorf("update = %+v", up)
	}
	if up.Set[0].Column != "A" || up.Set[0].Val.Int() != 1 {
		t.Errorf("set[0] = %+v", up.Set[0])
	}
	if !up.Set[2].Val.IsNull() {
		t.Errorf("set[2] = %+v", up.Set[2])
	}

	for _, src := range []string{
		"DELETE T",
		"DELETE FROM",
		"UPDATE SET A = 1",
		"UPDATE T A = 1",
		"UPDATE T SET = 1",
		"UPDATE T SET A 1",
		"UPDATE T SET A = B",
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
}
