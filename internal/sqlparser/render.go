package sqlparser

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// DELETE, UPDATE and DROP TABLE render back to parseable SQL text: the
// write-ahead log stores DELETE and UPDATE records logically (the
// statement, not the row images) and replays them by re-parsing, and
// the cluster coordinator forwards them to workers per shard. INSERT
// does not render: rows cross the log and the network as binary WAL
// records, never as SQL text. Predicates reuse the ast String renderers
// the EXPLAIN traces use; literals go through renderLiteral, which keeps
// every value in a form the lexer accepts (ISO dates as quoted strings,
// floats without exponents).

// String renders the statement as parseable SQL.
func (s *DeleteStmt) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	writeWhere(&b, s)
	return b.String()
}

// String renders the statement as parseable SQL.
func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, sc := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sc.Column)
		b.WriteString(" = ")
		b.WriteString(renderLiteral(sc.Val))
	}
	writeWhere(&b, s)
	return b.String()
}

// String renders the statement as parseable SQL.
func (s *DropTableStmt) String() string {
	return "DROP TABLE " + s.Table
}

func writeWhere(b *strings.Builder, s Statement) {
	var preds []interface{ String() string }
	switch s := s.(type) {
	case *DeleteStmt:
		for _, p := range s.Where {
			preds = append(preds, p)
		}
	case *UpdateStmt:
		for _, p := range s.Where {
			preds = append(preds, p)
		}
	}
	for i, p := range preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
}

// renderLiteral renders one literal value so that parseLiteral reads it
// back to an equivalent value (after the engine's column coercion).
func renderLiteral(v value.Value) string {
	switch v.Kind() {
	case value.KindDate:
		d := v.DateOf()
		return "'" + strconv.Itoa(d.Year()) + "-" +
			pad2(d.Month()) + "-" + pad2(d.Day()) + "'"
	case value.KindFloat:
		// 'f' keeps the text free of exponents the lexer cannot read.
		return strconv.FormatFloat(v.Float(), 'f', -1, 64)
	default:
		// NULL, integers, and quoted strings already render parseably.
		return v.String()
	}
}

func pad2(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}
