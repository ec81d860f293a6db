package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"resultdb/internal/types"
)

// parser consumes the token stream produced by the lexer.
type parser struct {
	toks []token
	i    int
	src  string
}

// Parse parses a single SQL statement (a trailing semicolon is allowed). A
// SELECT records src as its Src.
func Parse(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparse: expected exactly one statement, got %d", len(stmts))
	}
	if sel, ok := stmts[0].(*Select); ok {
		sel.Src = src
	}
	return stmts[0], nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*Select, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sqlparse: expected a SELECT statement")
	}
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var stmts []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		if !p.acceptSymbol(";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' or end of input")
		}
	}
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) backup()     { p.i-- }
func (p *parser) at(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.at(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	where := "end of input"
	if t.kind != tokEOF {
		where = fmt.Sprintf("%q at offset %d", t.text, t.pos)
	}
	return fmt.Errorf("sqlparse: %s, found %s", fmt.Sprintf(format, args...), where)
}

// expectIdent consumes an identifier (keywords are not valid identifiers).
func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected %s", what)
	}
	p.i++
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected a statement keyword")
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "EXPLAIN":
		p.next()
		analyze := p.acceptKeyword("ANALYZE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Analyze: analyze, Query: sel}, nil
	case "ANALYZE":
		p.next()
		a := &Analyze{}
		if t := p.peek(); t.kind == tokIdent {
			p.i++
			a.Table = t.text
		}
		return a, nil
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		return &Rollback{}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.acceptKeyword("MATERIALIZED") {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("view name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateMaterializedView{Name: name, Query: sel}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		} else if p.acceptKeyword("FOREIGN") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent("referenced table")
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{
				Columns: cols, RefTable: ref, RefColumns: refCols,
			})
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
			if col.PrimaryKey {
				ct.PrimaryKey = append(ct.PrimaryKey, col.Name)
			}
		}
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return ct, nil
	}
}

func (p *parser) parseParenIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent("column name")
	if err != nil {
		return ColumnDef{}, err
	}
	kind, err := p.parseTypeName()
	if err != nil {
		return ColumnDef{}, err
	}
	col := ColumnDef{Name: name, Type: kind}
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			col.NotNull = true
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

func (p *parser) parseTypeName() (types.Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected a type name")
	}
	p.i++
	var kind types.Kind
	switch t.text {
	case "INTEGER", "INT", "BIGINT":
		kind = types.KindInt
	case "DOUBLE", "FLOAT", "REAL":
		kind = types.KindFloat
	case "TEXT":
		kind = types.KindText
	case "VARCHAR", "CHAR":
		kind = types.KindText
		// optional length, e.g. VARCHAR(32): parsed and ignored.
		if p.acceptSymbol("(") {
			if p.peek().kind != tokNumber {
				return 0, p.errorf("expected length")
			}
			p.next()
			if err := p.expectSymbol(")"); err != nil {
				return 0, err
			}
		}
	case "BOOLEAN", "BOOL":
		kind = types.KindBool
	default:
		return 0, p.errorf("unsupported type %s", t.text)
	}
	return kind, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	materialized := p.acceptKeyword("MATERIALIZED")
	if materialized {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
	} else if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if materialized {
		return &DropMaterializedView{Name: name, IfExists: ifExists}, nil
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		cols, err := p.parseParenIdentList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			break
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			return ins, nil
		}
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("RESULTDB") {
		sel.ResultDB = true
		if p.acceptKeyword("PRESERVING") {
			sel.Preserving = true
		}
	}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
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
			if !p.acceptSymbol(",") {
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
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		sel.Limit = &n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	t := p.peek()
	if t.kind == tokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokSymbol && p.toks[p.i+2].text == "*" {
		p.i += 3
		return SelectItem{Star: true, Table: t.text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	ref, err := p.parseTableRef()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Ref: ref}
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return FromItem{}, err
			}
			jt = JoinLeftOuter
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return FromItem{}, err
			}
			jt = JoinInner
		case p.acceptKeyword("JOIN"):
			jt = JoinInner
		default:
			return item, nil
		}
		jref, err := p.parseTableRef()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return FromItem{}, err
		}
		item.Joins = append(item.Joins, Join{Type: jt, Ref: jref, On: on})
	}
}

// Expression grammar, loosest to tightest:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | predicate
//	pred   := additive (compare additive | IN ... | BETWEEN ... | LIKE ... | IS [NOT] NULL)?
//	additive := mul (('+'|'-') mul)*
//	mul    := unary (('*'|'/') unary)*
//	unary  := '-' unary | primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

var compareOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := compareOps[t.text]; ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	not := false
	if p.at("NOT") {
		// Lookahead for NOT IN / NOT BETWEEN / NOT LIKE.
		nxt := p.toks[p.i+1]
		if nxt.kind == tokKeyword && (nxt.text == "IN" || nxt.text == "BETWEEN" || nxt.text == "LIKE") {
			p.next()
			not = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		return p.parseInTail(l, not)
	case p.acceptKeyword("BETWEEN"):
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
		return &Between{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		t := p.peek()
		if t.kind != tokString {
			return nil, p.errorf("expected LIKE pattern string")
		}
		p.next()
		return &Like{E: l, Pattern: t.text, Not: not}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Not: isNot}, nil
	}
	if not {
		return nil, p.errorf("dangling NOT")
	}
	return l, nil
}

func (p *parser) parseInTail(l Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.at("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InSubquery{E: l, Query: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InList{E: l, List: list, Not: not}, nil
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals immediately.
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return &Literal{Value: types.NewInt(-lit.Value.Int())}, nil
			case types.KindFloat:
				return &Literal{Value: types.NewFloat(-lit.Value.Float())}, nil
			}
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Value: types.NewInt(n)}, nil
	case tokString:
		p.next()
		return &Literal{Value: types.NewText(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: types.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: types.NewBool(false)}, nil
		}
		return nil, p.errorf("unexpected keyword in expression")
	case tokIdent:
		p.next()
		// Function call?
		if p.acceptSymbol("(") {
			return p.parseFuncTail(t.text)
		}
		// table.column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
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
	}
	return nil, p.errorf("expected an expression")
}

func (p *parser) parseFuncTail(name string) (Expr, error) {
	f := &FuncCall{Name: strings.ToUpper(name)}
	if p.acceptSymbol("*") {
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptSymbol(")") {
		return f, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
}
