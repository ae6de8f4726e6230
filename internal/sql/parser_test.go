package sql

import (
	"reflect"
	"testing"

	"vexdb/internal/vector"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE t (id BIGINT, name VARCHAR(20), score DOUBLE, raw BLOB)")
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Name != "t" || len(ct.Columns) != 4 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Columns[1].Type != vector.String || ct.Columns[3].Type != vector.Blob {
		t.Fatal("column types wrong")
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT)").(*CreateTable)
	if !ct.IfNotExists {
		t.Fatal("IfNotExists")
	}
}

func TestParseCreateTableAsSelect(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE t2 AS SELECT a, b FROM t WHERE a > 1").(*CreateTable)
	if ct.AsSelect == nil || len(ct.AsSelect.Items) != 2 {
		t.Fatalf("ct = %+v", ct)
	}
}

func TestParseDrop(t *testing.T) {
	dt := mustParse(t, "DROP TABLE IF EXISTS t").(*DropTable)
	if dt.Name != "t" || !dt.IfExists {
		t.Fatalf("dt = %+v", dt)
	}
}

func TestParseInsertValues(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if !lit.Value.IsNull() {
		t.Fatal("NULL literal")
	}
}

func TestParseInsertSelect(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t SELECT * FROM s").(*Insert)
	if ins.Query == nil || !ins.Query.Items[0].Star {
		t.Fatalf("ins = %+v", ins)
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	d := mustParse(t, "DELETE FROM t WHERE a = 1").(*Delete)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("d = %+v", d)
	}
	u := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE c IS NULL").(*Update)
	if len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("u = %+v", u)
	}
}

// TestParseSetShow: SET and SHOW are statements only as a statement's
// first word; a setting's name is lower-cased and its value kept as
// text. SHOW stays a plain name, and UPDATE … SET is untouched.
func TestParseSetShow(t *testing.T) {
	for src, want := range map[string]Statement{
		"SET Workers = 2":         &Set{Name: "workers", Value: "2"},
		"SET memory_budget = -1;": &Set{Name: "memory_budget", Value: "-1"},
		"set planner = on":        &Set{Name: "planner", Value: "ON"},
		"SET planner = 'off'":     &Set{Name: "planner", Value: "off"},
		"show Planner":            &Show{Name: "planner"},
	} {
		if got := mustParse(t, src); !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %#v, want %#v", src, got, want)
		}
	}
	for _, src := range []string{"SET workers 2", "SHOW", "SET workers = (2)", "SET = 2"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	mustParse(t, "SELECT show FROM t")
	if u := mustParse(t, "UPDATE t SET show = 1").(*Update); u.Set[0].Column != "show" {
		t.Fatalf("UPDATE … SET show: %+v", u)
	}
}

func TestParseSelectFull(t *testing.T) {
	sel := mustParse(t, `
		SELECT t.a AS x, count(*) c
		FROM t
		JOIN s ON t.id = s.id
		LEFT JOIN r ON r.k = t.k
		WHERE t.a > 1 AND s.b IN (1, 2, 3)
		GROUP BY t.a
		HAVING count(*) > 2
		ORDER BY c DESC, x
		LIMIT 10 OFFSET 5`).(*Select)
	if len(sel.Items) != 2 || sel.Items[0].Alias != "x" || sel.Items[1].Alias != "c" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if len(sel.Joins) != 2 || sel.Joins[0].Kind != InnerJoin || sel.Joins[1].Kind != LeftJoin {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if sel.Where == nil || len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("clauses missing")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("orderby = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset")
	}
}

func TestParseSelectNoFrom(t *testing.T) {
	sel := mustParse(t, "SELECT 1 + 2 * 3").(*Select)
	be := sel.Items[0].Expr.(*BinaryExpr)
	if be.Op != OpAdd {
		t.Fatal("precedence: top must be +")
	}
	if be.Right.(*BinaryExpr).Op != OpMul {
		t.Fatal("precedence: right must be *")
	}
}

func TestParsePrecedenceAndOr(t *testing.T) {
	sel := mustParse(t, "SELECT a OR b AND c").(*Select)
	be := sel.Items[0].Expr.(*BinaryExpr)
	if be.Op != OpOr {
		t.Fatal("OR must bind loosest")
	}
	if be.Right.(*BinaryExpr).Op != OpAnd {
		t.Fatal("AND under OR")
	}
}

func TestParseSubqueryFrom(t *testing.T) {
	sel := mustParse(t, "SELECT x FROM (SELECT a AS x FROM t) AS sub").(*Select)
	sq, ok := sel.From.(*SubqueryTable)
	if !ok || sq.Alias != "sub" {
		t.Fatalf("from = %+v", sel.From)
	}
}

func TestParseTableFunc(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM train_rf((SELECT f, label FROM d), 16) AS m").(*Select)
	tf, ok := sel.From.(*TableFunc)
	if !ok {
		t.Fatalf("from = %T", sel.From)
	}
	if tf.Name != "train_rf" || len(tf.Args) != 2 || tf.Alias != "m" {
		t.Fatalf("tf = %+v", tf)
	}
	if tf.Args[0].Query == nil || tf.Args[1].Expr == nil {
		t.Fatal("arg kinds wrong")
	}
}

func TestParseCaseCastBetween(t *testing.T) {
	sel := mustParse(t, `SELECT
		CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END,
		CAST(a AS DOUBLE),
		b BETWEEN 1 AND 10`).(*Select)
	if _, ok := sel.Items[0].Expr.(*CaseExpr); !ok {
		t.Fatal("case")
	}
	c, ok := sel.Items[1].Expr.(*CastExpr)
	if !ok || c.To != vector.Float64 {
		t.Fatal("cast")
	}
	// BETWEEN desugars to AND of comparisons.
	be, ok := sel.Items[2].Expr.(*BinaryExpr)
	if !ok || be.Op != OpAnd {
		t.Fatalf("between = %+v", sel.Items[2].Expr)
	}
}

func TestParseSimpleCase(t *testing.T) {
	sel := mustParse(t, "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t").(*Select)
	ce := sel.Items[0].Expr.(*CaseExpr)
	if ce.Operand == nil || len(ce.Whens) != 2 || ce.Else != nil {
		t.Fatalf("ce = %+v", ce)
	}
}

func TestParseNotIn(t *testing.T) {
	sel := mustParse(t, "SELECT a NOT IN (1,2)").(*Select)
	in := sel.Items[0].Expr.(*InExpr)
	if !in.Negate || len(in.List) != 2 {
		t.Fatalf("in = %+v", in)
	}
}

func TestParseIsNotNull(t *testing.T) {
	sel := mustParse(t, "SELECT a IS NOT NULL, b IS NULL").(*Select)
	a := sel.Items[0].Expr.(*IsNullExpr)
	b := sel.Items[1].Expr.(*IsNullExpr)
	if !a.Negate || b.Negate {
		t.Fatal("is null parsing")
	}
}

func TestParseUnaryMinusFolding(t *testing.T) {
	sel := mustParse(t, "SELECT -5, -2.5, -(a)").(*Select)
	if sel.Items[0].Expr.(*Literal).Value.Int64() != -5 {
		t.Fatal("int fold")
	}
	if sel.Items[1].Expr.(*Literal).Value.Float64() != -2.5 {
		t.Fatal("float fold")
	}
	if _, ok := sel.Items[2].Expr.(*UnaryExpr); !ok {
		t.Fatal("column negation stays unary")
	}
}

func TestParseUnion(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t UNION ALL SELECT b FROM s").(*Select)
	if sel.Union == nil || !sel.UnionAll {
		t.Fatalf("union = %+v", sel)
	}
}

func TestParseDistinctAggregate(t *testing.T) {
	sel := mustParse(t, "SELECT count(DISTINCT a) FROM t").(*Select)
	fc := sel.Items[0].Expr.(*FuncCall)
	if !fc.Distinct || fc.Name != "count" {
		t.Fatalf("fc = %+v", fc)
	}
}

func TestParseQualifiedStar(t *testing.T) {
	sel := mustParse(t, "SELECT t.*, s.a FROM t, s").(*Select)
	if !sel.Items[0].Star || sel.Items[0].StarTable != "t" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Kind != CrossJoin {
		t.Fatal("comma join")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t (a NOTATYPE)",
		"INSERT INTO t",
		"SELECT a FROM t JOIN s", // missing ON
		"SELECT CASE END",        // no WHEN
		"SELECT CAST(a AS NOPE)", // bad type
		"SELECT a FROM t WHERE",  // truncated
		"SELECT * FROM t GROUP",  // truncated GROUP
		"SELECT 1 2",             // trailing garbage... actually '2' parses as alias
	}
	for _, src := range bad[:11] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestIsAggregate(t *testing.T) {
	sel := mustParse(t, "SELECT sum(a) + 1, a + 1, CASE WHEN max(b) > 0 THEN 1 ELSE 0 END").(*Select)
	if !IsAggregate(sel.Items[0].Expr) {
		t.Error("sum(a)+1 is aggregate")
	}
	if IsAggregate(sel.Items[1].Expr) {
		t.Error("a+1 is not aggregate")
	}
	if !IsAggregate(sel.Items[2].Expr) {
		t.Error("CASE with max is aggregate")
	}
}
