package sql

import (
	"strings"
	"testing"
)

// FuzzParse: any input parses to a statement or fails with an error,
// never a panic, alone or as a script; and every token the lexer
// returns is what the source holds at its offset, so a string literal
// re-quoted (its ' doubled) is the source text it was read from.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"INSERT INTO ingest VALUES (0, 0, 0, 'note-000'),(1, 1, 1, 'note-001'),(2, 2, 2, 'note-002')",
		"INSERT INTO t VALUES ('it''s', '''', '''''', 'a''b''c', '')",
		"INSERT INTO t VALUES ('unterminated",
		"SELECT 'a''",
		"SELECT '",
		"CREATE TABLE t (a",
		"SELECT CAST(a AS",
		"SELECT a <= b, a >= b, a <> b, a != b, a || b, a < b, a > b, a = b, a ! b, a | b FROM t",
		"SELECT 1<=2>=3<>4!=5||6",
		"CREATE TABLE t (id BIGINT, name VARCHAR(20), score DOUBLE, raw BLOB)",
		"CREATE TABLE IF NOT EXISTS t (a INT)",
		"CREATE TABLE t2 AS SELECT a, b FROM t WHERE a > 1",
		"DROP TABLE IF EXISTS t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"INSERT INTO t SELECT * FROM s",
		"DELETE FROM t WHERE a = 1",
		"UPDATE t SET a = a + 1, b = 'x' WHERE c IS NULL",
		"SELECT t.a AS x, count(*) c FROM t JOIN s ON t.id = s.id LEFT JOIN r ON r.k = t.k WHERE t.a > 1 AND s.b IN (1, 2, 3) GROUP BY t.a HAVING count(*) > 2 ORDER BY c DESC, x LIMIT 10 OFFSET 5",
		"SELECT 1 + 2 * 3",
		"SELECT a OR b AND c",
		"SELECT x FROM (SELECT a AS x FROM t) AS sub",
		"SELECT * FROM train_rf((SELECT f, label FROM d), 16) AS m",
		"SELECT CASE WHEN a BETWEEN 1 AND 2 THEN CAST(a AS DOUBLE) ELSE 0 END FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t",
		"SELECT a NOT IN (1,2)",
		"SELECT a IS NOT NULL, b IS NULL",
		"SELECT -5, -2.5, -(a)",
		"SELECT a FROM t UNION ALL SELECT b FROM s",
		"SELECT count(DISTINCT a) FROM t",
		"SELECT t.*, s.a FROM t, s",
		"SELECT sum(a) + 1, a + 1, CASE WHEN max(b) > 0 THEN 1 ELSE 0 END",
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
		"SELECT -- line comment\n 1 /* block\ncomment */ + 2",
		"SELECT a, b2 FROM t WHERE x >= 1.5 AND y = 'it''s'",
		"select From WhErE",
		"a @ b",
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t (a NOTATYPE)",
		"INSERT INTO t",
		"SELECT a FROM t JOIN s",
		"SELECT CASE END",
		"SELECT CAST(a AS NOPE)",
		"SELECT a FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT 1 2",
		"SELECT 1e5, 2.5e-3, 1e+, 3.",
		"EXPLAIN ANALYZE SELECT 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if stmt, err := Parse(src); (stmt == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a statement or an error", src, stmt, err)
		}
		_, _ = ParseScript(src) // must not panic either
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		for _, tok := range toks {
			if tok.Pos < 0 || tok.Pos > len(src) {
				t.Fatalf("token %v at offset %d of %d bytes", tok, tok.Pos, len(src))
			}
			var text string
			switch tok.Kind {
			case TokString:
				text = "'" + strings.ReplaceAll(tok.Text, "'", "''") + "'"
			case TokSymbol, TokInt, TokFloat, TokIdent:
				text = tok.Text
			default:
				continue
			}
			if !strings.HasPrefix(src[tok.Pos:], text) {
				t.Fatalf("token %v at offset %d: the source there is %q", tok, tok.Pos, src[tok.Pos:])
			}
		}
	})
}
