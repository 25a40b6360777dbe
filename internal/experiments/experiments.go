// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) plus the ablations DESIGN.md calls out, as a
// client of the system: Intel-Sample's numbers come from statements
// internal/engine executes (harness.go); the experiments whose subject is
// the sampling allocator run the one lab composition (lab.go); and the
// algorithms the paper compares against, which the engine never runs, live
// here beside their only caller (baselines, self-training, the Optimal
// oracle, Section 3.1's branch and bound). Each experiment is a named runner
// that computes a typed result and renders it as a text table; cmd/exppred
// exposes them on the command line.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; same seed, same numbers.
	Seed uint64
	// Scale shrinks the datasets (1 = the paper's sizes). Values below 1
	// keep all distributional statistics but run proportionally faster.
	Scale float64
	// Iterations overrides each experiment's default repetition count
	// (0 keeps the default).
	Iterations int
	// Alpha, Beta, Rho are the default constraints (0 → 0.8, the paper's
	// defaults).
	Alpha, Beta, Rho float64
	// Out receives rendered tables; nil discards them.
	Out io.Writer
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.8
	}
	if c.Beta <= 0 {
		c.Beta = 0.8
	}
	if c.Rho <= 0 {
		c.Rho = 0.8
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// Runner caches generated datasets across experiments.
type Runner struct {
	cfg Config

	mu   sync.Mutex
	data map[string]*dataset.Dataset
}

// New creates a runner.
func New(cfg Config) *Runner {
	cfg.fill()
	return &Runner{cfg: cfg, data: make(map[string]*dataset.Dataset)}
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// cons returns the default constraints.
func (r *Runner) cons() core.Constraints {
	return core.Constraints{Alpha: r.cfg.Alpha, Beta: r.cfg.Beta, Rho: r.cfg.Rho}
}

// Dataset generates (or returns the cached) dataset by name at the
// configured scale.
func (r *Runner) Dataset(name string) (*dataset.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.data[name]; ok {
		return d, nil
	}
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	if r.cfg.Scale != 1 {
		spec = spec.Scaled(r.cfg.Scale)
	}
	d, err := dataset.Generate(spec, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.data[name] = d
	return d, nil
}

// DatasetNames returns the evaluation datasets in presentation order.
func DatasetNames() []string { return []string{"lc", "prosper", "census", "marketing"} }

// iters resolves the repetition count for an experiment.
func (r *Runner) iters(def int) int {
	if r.cfg.Iterations > 0 {
		return r.cfg.Iterations
	}
	return def
}

// rng derives a fresh deterministic generator for an experiment.
func (r *Runner) rng(salt uint64) *stats.RNG {
	return stats.NewRNG(r.cfg.Seed*0x9e3779b97f4a7c15 + salt)
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, r *Runner) (fmt.Stringer, error)
}

var registry = map[string]Experiment{}
var registryOrder []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	registryOrder = append(registryOrder, e.ID)
}

// IDs lists the registered experiment ids in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// Run executes the experiment and renders its result to cfg.Out.
func (r *Runner) Run(ctx context.Context, id string) (fmt.Stringer, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.cfg.Out, "== %s: %s ==\n", e.ID, e.Title)
	res, err := e.Run(ctx, r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.cfg.Out, res.String())
	return res, nil
}

// textTable renders rows of cells with aligned columns.
func textTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb []byte
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb = append(sb, ' ', ' ')
			}
			sb = append(sb, c...)
			for p := len(c); p < widths[i]; p++ {
				sb = append(sb, ' ')
			}
		}
		sb = append(sb, '\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		for p := 0; p < widths[i]; p++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return string(sb)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.0f%%", 100*v)
}
