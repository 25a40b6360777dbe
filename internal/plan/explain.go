package plan

import (
	"fmt"
	"strings"
)

// Format renders a plan chain as the EXPLAIN text: one node per line, from
// the finisher down to the scan, each indented one level under the node it
// feeds, with the node's mode, principal column, attributes and cost
// estimates. The output is stable (attributes are ordered), so it is safe to
// golden-test.
func Format(c Chain) string {
	var b strings.Builder
	for i := len(c) - 1; i >= 0; i-- {
		if depth := len(c) - 1 - i; depth > 0 {
			b.WriteString(strings.Repeat("   ", depth-1))
			b.WriteString("└─ ")
		}
		b.WriteString(nodeLine(c[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// nodeLine renders one node: "op[mode] key=value ...  (rows=…, cost≈…)".
func nodeLine(n *Node) string {
	var b strings.Builder
	b.WriteString(string(n.Op))
	if n.Mode != "" {
		fmt.Fprintf(&b, "[%s]", n.Mode)
	}
	for _, a := range n.Detail {
		fmt.Fprintf(&b, " %s=%s", a.Key, quoteIfSpacey(a.Value))
	}
	est := estimates(n)
	if est != "" {
		b.WriteString("  (")
		b.WriteString(est)
		b.WriteString(")")
	}
	if n.Actual != nil {
		b.WriteString("  (actual ")
		b.WriteString(actuals(n.Actual))
		b.WriteString(")")
	}
	return b.String()
}

// actuals renders the measured counts of an EXPLAIN ANALYZE node: rows
// always, every other count only when non-zero, the wall time last. The
// count fields are deterministic at any parallelism; only the time= part
// varies run to run.
func actuals(a *Actual) string {
	parts := []string{fmt.Sprintf("rows=%d", a.Rows)}
	add := func(key string, v int) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", key, v))
		}
	}
	add("groups", a.Groups)
	add("calls", a.Calls)
	add("hits", a.CacheHits)
	add("misses", a.CacheMisses)
	add("retries", a.Retries)
	add("denied", a.Denied)
	add("failed", a.Failed)
	if a.ElapsedNS > 0 {
		parts = append(parts, fmt.Sprintf("time=%.3fms", float64(a.ElapsedNS)/1e6))
	}
	return strings.Join(parts, " ")
}

func estimates(n *Node) string {
	var parts []string
	if n.EstRows > 0 {
		parts = append(parts, fmt.Sprintf("rows≈%d", n.EstRows))
	}
	if n.EstCost > 0 {
		rel := "≈"
		if n.CostIsBound {
			rel = "≤"
		}
		parts = append(parts, fmt.Sprintf("cost%s%.6g", rel, n.EstCost))
	}
	return strings.Join(parts, ", ")
}

// quoteIfSpacey wraps multi-word attribute values in quotes so lines stay
// machine-splittable on spaces around '='.
func quoteIfSpacey(v string) string {
	if strings.ContainsAny(v, " \t") {
		return "«" + v + "»"
	}
	return v
}
