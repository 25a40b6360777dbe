package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/table"
)

// The harness: the reproduction is a client of the system. Every experiment
// that uses the shipped settings (table2, fig1a, fig1b's Intel-Sample row,
// fig2a/b, columns, ablation-margin, ext-twopred) issues a statement to
// internal/engine — the pipeline a user runs — and scores the rows and
// Stats that come back against ground truth. Sweep is the one loop that
// checks the (α, β, ρ) contract: many statements against one world, each
// scored, counted and decided by stats.ContractHolds. What the engine
// cannot vary without a new knob, the sampling allocator, is lab.go's
// subject.

// Predicate is ground truth registered with the engine as an expensive UDF
// over the table's id column (whose value is the row id).
type Predicate struct {
	Name  string
	Truth func(row int) bool
}

// RunEngine executes
//
//	SELECT id FROM tbl [JOIN right ON tbl.LeftKey = right.RightKey]
//	WHERE p₁(id) = 1 [AND p₂(id) = 1 …]
//	WITH PRECISION α RECALL β PROBABILITY ρ GROUP ON groupOn
//
// over the world on a fresh engine with the given seed (NewEngine).
func RunEngine(ctx context.Context, seed uint64, w World, cons core.Constraints) (Run, error) {
	eng, q, err := NewEngine(seed, w, cons)
	if err != nil {
		return Run{}, err
	}
	res, err := eng.ExecuteContext(ctx, q)
	if err != nil {
		return Run{}, err
	}
	st := res.Stats
	return Run{Rows: res.Rows, Evaluations: st.Evaluations, Retrievals: st.Retrievals, Sampled: st.Sampled, Cost: st.Cost}, nil
}

// NewEngine returns a fresh engine with the given seed that holds the world,
// and the statement RunEngine executes on it. The cross-query cache is off
// so every statement pays for its own evaluations; parallelism is 1 because
// the truth UDFs are instant and the result is the same at any setting.
func NewEngine(seed uint64, w World, cons core.Constraints) (*engine.Engine, plan.Query, error) {
	if len(w.Preds) == 0 {
		return nil, plan.Query{}, fmt.Errorf("experiments: no predicate")
	}
	eng := engine.New(seed)
	eng.CacheUDFResults = false
	eng.Parallelism = 1
	if err := eng.RegisterTable(w.Table); err != nil {
		return nil, plan.Query{}, err
	}
	q := plan.Query{
		Table:   w.Table.Name(),
		Columns: []string{"id"},
		Approx:  &plan.Approx{Precision: cons.Alpha, Recall: cons.Beta, Probability: cons.Rho},
		GroupOn: w.GroupOn,
	}
	if w.Right != nil {
		if err := eng.RegisterTable(w.Right); err != nil {
			return nil, plan.Query{}, err
		}
		q.Join = &plan.Join{Table: w.Right.Name(), LeftKey: w.LeftKey, RightKey: w.RightKey}
	}
	for _, p := range w.Preds {
		truth := p.Truth
		body := func(_ context.Context, v table.Value) (bool, error) { return truth(int(v.(int64))), nil }
		if err := eng.RegisterUDF(engine.UDF{Name: p.Name, Body: body}); err != nil {
			return nil, plan.Query{}, err
		}
		q.Predicates = append(q.Predicates, plan.Conjunct{UDFName: p.Name, UDFArg: "id", Want: true})
	}
	return eng, q, nil
}

// World is what a Sweep runs statements against: a table whose id column
// holds the row id, the column they group on and the predicates they AND.
// The conjunction of the predicates' truths is the ground truth. A world
// with a Right table joins it on Table.LeftKey = Right.RightKey (Section
// 5's selection before join): its ground truth is the join result, in which
// a row appears once per Right row carrying its key.
type World struct {
	Table   *table.Table
	GroupOn string
	Preds   []Predicate

	Right             *table.Table
	LeftKey, RightKey string
}

// multiplicity returns each row's count in the world's result: 1, or with a
// join the Right rows whose key renders as the row's does.
func (w World) multiplicity() (func(row int) int, error) {
	if w.Right == nil {
		return func(int) int { return 1 }, nil
	}
	left, right := w.Table.ColumnByName(w.LeftKey), w.Right.ColumnByName(w.RightKey)
	if left == nil || right == nil {
		return nil, fmt.Errorf("experiments: join key %s.%s or %s.%s not found", w.Table.Name(), w.LeftKey, w.Right.Name(), w.RightKey)
	}
	count := make(map[string]int)
	for row := 0; row < right.Len(); row++ {
		count[right.StringAt(row)]++
	}
	return func(row int) int { return count[left.StringAt(row)] }, nil
}

// Tally is a Sweep's outcome: every statement scored against the world's
// ground truth, and how many met precision, recall and both.
type Tally struct {
	Statements      []AlgoOutcome
	MetP, MetR, Met int
}

// Holds decides the contract by stats.ContractHolds at
// stats.ContractSignificance. Precision and recall are each promised with
// probability ρ (core.Constraints), so each count is tested on its own.
func (t Tally) Holds(rho float64) bool {
	n := len(t.Statements)
	return stats.ContractHolds(t.MetP, n, rho, stats.ContractSignificance) &&
		stats.ContractHolds(t.MetR, n, rho, stats.ContractSignificance)
}

// Sweep runs n approximate statements through RunEngine against one world,
// each on a fresh engine seeded by the next draw of rng, and scores each
// against the world's ground truth. With a join, the score is over the join
// result: every returned row counts with its multiplicity.
func Sweep(ctx context.Context, w World, cons core.Constraints, n int, rng *stats.RNG) (Tally, error) {
	truth := func(row int) bool {
		for _, p := range w.Preds {
			if !p.Truth(row) {
				return false
			}
		}
		return true
	}
	mult, err := w.multiplicity()
	if err != nil {
		return Tally{}, err
	}
	total := 0
	for row := 0; row < w.Table.NumRows(); row++ {
		if truth(row) {
			total += mult(row)
		}
	}
	t := Tally{Statements: make([]AlgoOutcome, n)}
	for i := range t.Statements {
		run, err := RunEngine(ctx, rng.Uint64(), w, cons)
		if w.Right != nil {
			var joined []int
			for _, row := range run.Rows {
				for range mult(row) {
					joined = append(joined, row)
				}
			}
			run.Rows = joined
		}
		o, err := score(truth, total, cons, run, err)
		if err != nil {
			return Tally{}, err
		}
		t.Statements[i] = o
		if o.SatisfiedP {
			t.MetP++
		}
		if o.SatisfiedR {
			t.MetR++
		}
		if o.SatisfiedP && o.SatisfiedR {
			t.Met++
		}
	}
	return t, nil
}

// GroupTable loads a grouped synthetic world as the two-column table
// (id, g) the engine can GROUP ON: row i carries id i and its group's key.
// The groups must partition 0..n-1.
func GroupTable(name string, groups []core.Group) (*table.Table, error) {
	n := 0
	for _, g := range groups {
		n += len(g.Rows)
	}
	keys := make([]string, n)
	for _, g := range groups {
		for _, row := range g.Rows {
			keys[row] = g.Key
		}
	}
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "g", Type: table.String},
	)
	if err != nil {
		return nil, err
	}
	tbl := table.New(name, schema)
	for row, key := range keys {
		if err := tbl.AppendRow(int64(row), key); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
