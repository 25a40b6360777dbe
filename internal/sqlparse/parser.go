package sqlparse

import (
	"strconv"
	"strings"

	"repro/internal/plan"
)

// Statement is a parsed query: the statement AST internal/plan declares
// (every clause, JOIN included, is a field of plan.Query — the parser fills
// it in and the engine binds it; there is no second form to lower into),
// plus the statement's marks. Explain marks an
// EXPLAIN-prefixed statement — the caller should plan (and render) the
// query instead of executing it. Analyze marks EXPLAIN ANALYZE: the caller
// should EXECUTE the query and render the plan annotated with measured
// per-operator counts.
type Statement struct {
	Query   plan.Query
	Explain bool
	Analyze bool
}

// DefaultBound is the value used for WITH-clause bounds the user omits.
const DefaultBound = 0.9

type parser struct {
	input string
	toks  []token
	pos   int
}

// Parse parses one statement of the engine's SQL dialect. Errors are
// *Error values carrying the line/column of the offending token.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, toks: toks}
	explain, analyze := false, false
	if isKeyword(p.peek(), "EXPLAIN") {
		p.next()
		explain = true
		if isKeyword(p.peek(), "ANALYZE") {
			p.next()
			analyze = true
		}
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Explain = explain
	stmt.Analyze = analyze
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf(p.peek(), "unexpected %s after statement", p.peek())
	}
	if err := stmt.Query.Validate(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// errf builds a positional error pointing at token t.
func (p *parser) errf(t token, format string, args ...any) error {
	return errAt(p.input, t.pos, format, args...)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !isKeyword(t, kw) {
		return p.errf(t, "expected %s, got %s", kw, t)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return p.errf(t, "expected %q, got %s", sym, t)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errf(t, "expected identifier, got %s", t)
	}
	return t.text, nil
}

// qualifiedIdent parses ident or ident.ident and returns the final part.
func (p *parser) qualifiedIdent() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	for p.peek().kind == tokSymbol && p.peek().text == "." {
		p.next()
		name, err = p.ident()
		if err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errf(t, "expected number, got %s", t)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errf(t, "bad number %q: %v", t.text, err)
	}
	return v, nil
}

func (p *parser) parseSelect() (*Statement, error) {
	stmt := &Statement{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	cols, err := p.parseColumns()
	if err != nil {
		return nil, err
	}
	stmt.Query.Columns = cols

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	stmt.Query.Table, err = p.ident()
	if err != nil {
		return nil, err
	}

	if isKeyword(p.peek(), "JOIN") {
		p.next()
		join := &plan.Join{}
		join.Table, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		join.LeftKey, err = p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		join.RightKey, err = p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		stmt.Query.Join = join
	}

	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.parseWhere(stmt); err != nil {
		return nil, err
	}

	for {
		switch {
		case isKeyword(p.peek(), "WITH"):
			t := p.next()
			if stmt.Query.Approx != nil {
				return nil, p.errf(t, "duplicate WITH clause")
			}
			approx, err := p.parseWith()
			if err != nil {
				return nil, err
			}
			stmt.Query.Approx = approx
		case isKeyword(p.peek(), "GROUP"):
			t := p.next()
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if stmt.Query.GroupOn != "" {
				return nil, p.errf(t, "duplicate GROUP ON clause")
			}
			stmt.Query.GroupOn, err = p.ident()
			if err != nil {
				return nil, err
			}
		case isKeyword(p.peek(), "BUDGET"):
			t := p.next()
			if stmt.Query.Budget != 0 {
				return nil, p.errf(t, "duplicate BUDGET clause")
			}
			stmt.Query.Budget, err = p.number()
			if err != nil {
				return nil, err
			}
		default:
			return stmt, nil
		}
	}
}

// parseWhere parses a conjunction of predicates: expensive UDF predicates
// `udf(col) = 0|1` (any number — one is the plain selection, two the
// paper's §5 conjunction, three or more the N-ary greedy-wave path) and
// cheap equality filters `col = literal` (any number; the engine pushes
// these down and evaluates them first, per Section 5).
func (p *parser) parseWhere(stmt *Statement) error {
	whereTok := p.peek()
	for {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			// UDF predicate.
			p.next()
			arg, err := p.qualifiedIdent()
			if err != nil {
				return err
			}
			if err := p.expectSymbol(")"); err != nil {
				return err
			}
			if err := p.expectSymbol("="); err != nil {
				return err
			}
			numTok := p.peek()
			v, err := p.number()
			if err != nil {
				return err
			}
			if v != 0 && v != 1 {
				return p.errf(numTok, "UDF comparison must be = 0 or = 1, got %v", v)
			}
			stmt.Query.Predicates = append(stmt.Query.Predicates,
				plan.Conjunct{UDFName: name, UDFArg: arg, Want: v == 1})
		} else {
			// Cheap equality filter: col [= literal].
			col := name
			for p.peek().kind == tokSymbol && p.peek().text == "." {
				p.next()
				col, err = p.ident()
				if err != nil {
					return err
				}
			}
			if err := p.expectSymbol("="); err != nil {
				return err
			}
			val, err := p.literal()
			if err != nil {
				return err
			}
			stmt.Query.Filters = append(stmt.Query.Filters, plan.Filter{Column: col, Value: val})
		}
		if !isKeyword(p.peek(), "AND") {
			break
		}
		p.next()
	}
	if len(stmt.Query.Predicates) == 0 {
		return p.errf(whereTok, "WHERE clause needs a UDF predicate")
	}
	return nil
}

// literal parses a filter value: a number, a quoted string, or a bare
// identifier (treated as a string value).
func (p *parser) literal() (string, error) {
	t := p.next()
	switch t.kind {
	case tokNumber, tokString, tokIdent:
		return t.text, nil
	default:
		return "", p.errf(t, "expected literal, got %s", t)
	}
}

func (p *parser) parseColumns() ([]string, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
		return nil, nil
	}
	var cols []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, name)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		return cols, nil
	}
}

func (p *parser) parseWith() (*plan.Approx, error) {
	approx := &plan.Approx{Precision: DefaultBound, Recall: DefaultBound, Probability: DefaultBound}
	seen := map[string]bool{}
	found := false
	for {
		var field *float64
		switch {
		case isKeyword(p.peek(), "PRECISION"):
			field = &approx.Precision
		case isKeyword(p.peek(), "RECALL"):
			field = &approx.Recall
		case isKeyword(p.peek(), "PROBABILITY"):
			field = &approx.Probability
		default:
			if !found {
				return nil, p.errf(p.peek(), "WITH requires at least one of PRECISION, RECALL, PROBABILITY")
			}
			return approx, nil
		}
		t := p.next()
		kw := strings.ToUpper(t.text)
		if seen[kw] {
			return nil, p.errf(t, "duplicate %s in WITH clause", kw)
		}
		seen[kw] = true
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		*field = v
		found = true
	}
}
