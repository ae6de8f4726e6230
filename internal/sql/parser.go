package sql

import (
	"fmt"
	"strconv"
	"strings"

	"vexdb/internal/vector"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
}

// Parse parses a single SQL statement (a trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		if p.accept(TokSymbol, ";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.atEOF() && !p.accept(TokSymbol, ";") {
			return nil, p.errorf("expected ';' between statements, got %s", p.peek())
		}
	}
	return out, nil
}

func newParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks, src: src}, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) backup()     { p.pos-- }

// next consumes the next token. The EOF token is never consumed, so
// peek after a truncated statement still reads EOF.
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// accept consumes the next token when it matches kind and text
// (case-sensitive for symbols, keywords already uppercased).
func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) expectSymbol(s string) error {
	if !p.accept(TokSymbol, s) {
		return p.errorf("expected %q, got %s", s, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, got %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.next()
		ex := &Explain{}
		if p.acceptKeyword("ANALYZE") {
			ex.Analyze = true
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ex.Query = sel
		return ex, nil
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "DELETE":
		return p.parseDelete()
	case "UPDATE":
		return p.parseUpdate()
	}
	return nil, p.errorf("unsupported statement %s", t.Text)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ct.AsSelect = sel
		return ct, nil
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeTok := p.next()
		if typeTok.Kind != TokIdent && typeTok.Kind != TokKeyword {
			return nil, p.errorf("expected type name, got %s", typeTok)
		}
		typeName := typeTok.Text
		// Consume optional (N) length parameter.
		if p.accept(TokSymbol, "(") {
			for !p.accept(TokSymbol, ")") {
				if p.atEOF() {
					return nil, p.errorf("unterminated type parameter")
				}
				p.next()
			}
		}
		typ, ok := vector.TypeFromName(typeName)
		if !ok {
			return nil, p.errorf("unknown type %q", typeName)
		}
		ct.Columns = append(ct.Columns, ColumnDef{Name: colName, Type: typ})
		if p.accept(TokSymbol, ",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		break
	}
	return ct, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.accept(TokSymbol, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.accept(TokSymbol, ",") {
				continue
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.acceptKeyword("VALUES") {
		// Rows' cells lie back to back in blocks of 64 rows of the
		// previous row's width; a row is a capped slice of its block.
		var cells []Expr
		width := 0
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if cap(cells)-len(cells) < width {
				cells = make([]Expr, 0, 64*width)
			}
			start := len(cells)
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				cells = append(cells, e)
				if p.accept(TokSymbol, ",") {
					continue
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				break
			}
			ins.Rows = append(ins.Rows, cells[start:len(cells):len(cells)])
			width = len(cells) - start
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		return ins, nil
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = sel
		return ins, nil
	}
	return nil, p.errorf("expected VALUES or SELECT, got %s", p.peek())
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: e})
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		src, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = src
		for {
			var kind JoinKind
			switch {
			case p.acceptKeyword("JOIN"):
				kind = InnerJoin
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = InnerJoin
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = LeftJoin
			case p.accept(TokSymbol, ","):
				kind = CrossJoin
			default:
				goto joinsDone
			}
			src, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			j := Join{Kind: kind, Src: src}
			if kind != CrossJoin {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				j.On = on
			}
			sel.Joins = append(sel.Joins, j)
		}
	}
joinsDone:
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("UNION") {
		sel.UnionAll = p.acceptKeyword("ALL")
		u, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.Union = u
		return sel, nil
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* qualified star
	if p.peek().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSymbol && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	// Parenthesized subquery.
	if p.accept(TokSymbol, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		alias := p.parseOptionalAlias()
		return &SubqueryTable{Query: sel, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	// Table-valued function call.
	if p.accept(TokSymbol, "(") {
		tf := &TableFunc{Name: strings.ToLower(name)}
		if !p.accept(TokSymbol, ")") {
			for {
				arg, err := p.parseTableFuncArg()
				if err != nil {
					return nil, err
				}
				tf.Args = append(tf.Args, arg)
				if p.accept(TokSymbol, ",") {
					continue
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				break
			}
		}
		tf.Alias = p.parseOptionalAlias()
		return tf, nil
	}
	alias := p.parseOptionalAlias()
	return &BaseTable{Name: name, Alias: alias}, nil
}

func (p *Parser) parseTableFuncArg() (TableFuncArg, error) {
	// A subquery argument: (SELECT ...)
	if p.peek().Kind == TokSymbol && p.peek().Text == "(" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "SELECT" {
		p.next() // (
		sel, err := p.parseSelect()
		if err != nil {
			return TableFuncArg{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return TableFuncArg{}, err
		}
		return TableFuncArg{Query: sel}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return TableFuncArg{}, err
	}
	return TableFuncArg{Expr: e}, nil
}

func (p *Parser) parseOptionalAlias() string {
	if p.acceptKeyword("AS") {
		if p.peek().Kind == TokIdent {
			return p.next().Text
		}
		p.backup() // keep AS for error reporting downstream
		return ""
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text
	}
	return ""
}

// ----------------------------------------------------------------- expr

// parseExpr parses with precedence: OR < AND < NOT < comparison <
// additive < multiplicative < unary < primary.
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Neg: false, Operand: e}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokSymbol {
			if op, ok := comparisonOps[t.Text]; ok {
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BinaryExpr{Op: op, Left: left, Right: right}
				continue
			}
		}
		if t.Kind == TokKeyword {
			switch t.Text {
			case "IS":
				p.next()
				neg := p.acceptKeyword("NOT")
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				left = &IsNullExpr{Operand: left, Negate: neg}
				continue
			case "IN":
				p.next()
				in, err := p.parseInList(left, false)
				if err != nil {
					return nil, err
				}
				left = in
				continue
			case "NOT":
				// NOT IN / NOT BETWEEN
				if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword {
					switch p.toks[p.pos+1].Text {
					case "IN":
						p.next()
						p.next()
						in, err := p.parseInList(left, true)
						if err != nil {
							return nil, err
						}
						left = in
						continue
					case "BETWEEN":
						p.next()
						p.next()
						b, err := p.parseBetween(left, true)
						if err != nil {
							return nil, err
						}
						left = b
						continue
					}
				}
			case "BETWEEN":
				p.next()
				b, err := p.parseBetween(left, false)
				if err != nil {
					return nil, err
				}
				left = b
				continue
			}
		}
		return left, nil
	}
}

func (p *Parser) parseInList(operand Expr, negate bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	in := &InExpr{Operand: operand, Negate: negate}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.accept(TokSymbol, ",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		break
	}
	return in, nil
}

// parseBetween desugars x BETWEEN a AND b into x >= a AND x <= b.
func (p *Parser) parseBetween(operand Expr, negate bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	e := Expr(&BinaryExpr{Op: OpAnd,
		Left:  &BinaryExpr{Op: OpGe, Left: operand, Right: lo},
		Right: &BinaryExpr{Op: OpLe, Left: operand, Right: hi}})
	if negate {
		e = &UnaryExpr{Operand: e}
	}
	return e, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return left, nil
		}
		var op BinaryOp
		switch t.Text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return left, nil
		}
		var op BinaryOp
		switch t.Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals.
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Type() {
			case vector.Int64:
				return &Literal{Value: vector.NewInt64(-lit.Value.Int64())}, nil
			case vector.Float64:
				return &Literal{Value: vector.NewFloat64(-lit.Value.Float64())}, nil
			}
		}
		return &UnaryExpr{Neg: true, Operand: e}, nil
	}
	if p.accept(TokSymbol, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &Literal{Value: vector.NewInt64(n)}, nil
	case TokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", t.Text)
		}
		return &Literal{Value: vector.NewFloat64(f)}, nil
	case TokString:
		p.next()
		return &Literal{Value: vector.NewString(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: vector.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: vector.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: vector.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case TokIdent:
		p.next()
		name := t.Text
		// Function call.
		if p.accept(TokSymbol, "(") {
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.accept(TokSymbol, "*") {
				fc.Star = true
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.accept(TokSymbol, ")") {
				return fc, nil
			}
			if p.acceptKeyword("DISTINCT") {
				fc.Distinct = true
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, e)
				if p.accept(TokSymbol, ",") {
					continue
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				break
			}
			return fc, nil
		}
		// Qualified column ref: t.col
		if p.accept(TokSymbol, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, p.errorf("unexpected token %s", t)
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if !(p.peek().Kind == TokKeyword && p.peek().Text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN clause")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseCast() (Expr, error) {
	p.next() // CAST
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typeTok := p.next()
	if typeTok.Kind != TokIdent && typeTok.Kind != TokKeyword {
		return nil, p.errorf("expected type name in CAST, got %s", typeTok)
	}
	typ, ok := vector.TypeFromName(typeTok.Text)
	if !ok {
		return nil, p.errorf("unknown type %q in CAST", typeTok.Text)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CastExpr{Operand: e, To: typ}, nil
}
