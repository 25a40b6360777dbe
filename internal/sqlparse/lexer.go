// Package sqlparse implements the small SQL dialect the engine accepts:
//
//	[EXPLAIN] SELECT <*|col,...> FROM <table>
//	    [JOIN <table2> ON <leftcol> = <rightcol>]
//	    WHERE <udf>(<col>) = <0|1> [AND <udf2>(<col2>) = <0|1> ...]
//	    [WITH [PRECISION p] [RECALL r] [PROBABILITY q]]
//	    [GROUP ON <col>]
//	    [BUDGET <b>]
//
// The WITH clause turns on approximate evaluation; omitted bounds default
// to 0.9. WHERE takes any number of expensive UDF predicates ANDed
// together (plus cheap `col = literal` filters, evaluated first). GROUP ON
// pins the correlated column ("virtual" requests the logistic-regression
// virtual column); without it the engine discovers a column automatically.
// BUDGET switches to the fixed-budget objective. An EXPLAIN prefix asks
// for the physical operator chain instead of executing. Parse errors are
// *Error values carrying the offending token's line and column.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString // single-quoted literal, quotes stripped
	tokSymbol // single-character punctuation: * ( ) = , . ;
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits the input into tokens. Identifiers keep their original case;
// keyword comparison is case-insensitive at parse time.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '*' || c == '(' || c == ')' || c == '=' || c == ',' || c == '.' || c == ';':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '\'':
			start := i
			i++
			for i < len(input) && input[i] != '\'' {
				i++
			}
			if i >= len(input) {
				return nil, errAt(input, start, "unterminated string literal")
			}
			toks = append(toks, token{tokString, input[start+1 : i], start})
			i++
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (isIdentChar(rune(input[i]))) {
				i++
			}
			toks = append(toks, token{tokIdent, input[start:i], start})
		case unicode.IsDigit(c):
			start := i
			seenDot := false
			for i < len(input) {
				ch := rune(input[i])
				if ch == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if !unicode.IsDigit(ch) {
					break
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		default:
			return nil, errAt(input, i, "unexpected character %q", c)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
