package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A deliberate exception to an invariant is
// annotated in place:
//
//	//predlint:allow <analyzer>[,<analyzer>...] — <reason>
//
// The separator may be an em dash or "--"; the reason is mandatory and
// should say why the exception is safe, not what the code does. A
// directive suppresses findings of the named analyzers on its own line
// (trailing comment) and on the line immediately below (standalone comment
// above a statement).
//
// A malformed directive — no analyzer names, an unknown analyzer name, or
// a missing reason — is itself a finding, attributed to the pseudo-analyzer
// "predlint", and is never suppressible: the directive grammar is how
// suppression creep stays auditable, so it is enforced unconditionally.

const directivePrefix = "//predlint:allow"

// InvalidDirectiveAnalyzer attributes malformed-directive findings.
const InvalidDirectiveAnalyzer = "predlint"

// directive is one parsed //predlint:allow comment.
type directive struct {
	line      int
	col       int
	file      string
	analyzers []string
	reason    string
}

func (d *directive) allows(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// suppressor holds every well-formed directive of the analyzed packages
// plus findings for the malformed ones.
type suppressor struct {
	directives []*directive
	invalid    []Finding
	// used counts findings suppressed per directive (parallel to
	// directives), so totals and unused directives are reportable.
	used []int
	// seen dedupes files shared between a package and its test variant.
	seen map[string]bool
}

// collectDirectives scans a package's files, skipping files already
// collected (a package and its test variant share the non-test files).
// known names the valid analyzer set for unknown-name validation.
func (s *suppressor) collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if s.seen[name] {
			continue
		}
		s.seen[name] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				d, problem := parseDirective(c.Text, known)
				if problem != "" {
					s.invalid = append(s.invalid, Finding{
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: InvalidDirectiveAnalyzer,
						Message:  problem,
					})
					continue
				}
				d.line = pos.Line
				d.col = pos.Column
				d.file = pos.Filename
				s.directives = append(s.directives, d)
				s.used = append(s.used, 0)
			}
		}
	}
}

// parseDirective validates one comment's text. It returns the parsed
// directive, or a non-empty problem string describing the violation of the
// directive grammar.
func parseDirective(text string, known map[string]bool) (*directive, string) {
	rest := strings.TrimPrefix(text, directivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //predlint:allowx — not a directive at all; but the prefix
		// matched, so the author meant one. Flag rather than silently ignore.
		return nil, "malformed predlint directive: expected //predlint:allow <analyzer> — <reason>"
	}
	var namesPart, reason string
	for _, sep := range []string{"—", "--"} {
		if i := strings.Index(rest, sep); i >= 0 {
			namesPart, reason = rest[:i], rest[i+len(sep):]
			break
		}
	}
	if namesPart == "" && reason == "" {
		return nil, "predlint directive without a reason: write //predlint:allow <analyzer> — <reason>"
	}
	reason = strings.TrimSpace(reason)
	if reason == "" {
		return nil, "predlint directive without a reason: the reason after the dash is mandatory"
	}
	var names []string
	for _, field := range strings.FieldsFunc(namesPart, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		names = append(names, field)
	}
	if len(names) == 0 {
		return nil, "predlint directive without an analyzer name: write //predlint:allow <analyzer> — <reason>"
	}
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Sprintf("predlint directive names unknown analyzer %q", n)
		}
	}
	return &directive{analyzers: names, reason: reason}, ""
}

// suppress reports whether finding f is covered by a directive, and records
// the use.
func (s *suppressor) suppress(f Finding) bool {
	for i, d := range s.directives {
		if d.file == f.File && d.allows(f.Analyzer) && (f.Line == d.line || f.Line == d.line+1) {
			s.used[i]++
			return true
		}
	}
	return false
}

// counts reports (total suppressed findings, directives present).
func (s *suppressor) counts() (suppressed, directives int) {
	for _, n := range s.used {
		suppressed += n
	}
	return suppressed, len(s.directives)
}

// stale returns one finding per directive that suppressed nothing this
// run, attributed to the pseudo-analyzer "predlint".
func (s *suppressor) stale() []Finding {
	var out []Finding
	for i, d := range s.directives {
		if s.used[i] > 0 {
			continue
		}
		out = append(out, Finding{
			File:     d.file,
			Line:     d.line,
			Col:      d.col,
			Analyzer: InvalidDirectiveAnalyzer,
			Message: fmt.Sprintf("stale //predlint:allow %s directive: it suppressed nothing in this run — remove it, or fix the code it excused",
				strings.Join(d.analyzers, ",")),
		})
	}
	return out
}

// uses itemizes every well-formed directive with its suppression count,
// in collection order (callers sort after path relativization).
func (s *suppressor) uses() []DirectiveUse {
	out := make([]DirectiveUse, 0, len(s.directives))
	for i, d := range s.directives {
		out = append(out, DirectiveUse{
			File:      d.file,
			Line:      d.line,
			Analyzers: append([]string(nil), d.analyzers...),
			Reason:    d.reason,
			Uses:      s.used[i],
		})
	}
	return out
}
