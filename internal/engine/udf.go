// Package engine is the query-engine substrate: it binds the core
// optimizer to tables, exposes a UDF registry with cost accounting, plans
// and executes approximate selection queries (optionally with automatic
// correlated-column discovery and logistic-regression virtual columns),
// and implements the selection-before-join extension.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/table"
)

// UDFBody is a user-supplied predicate over a single column value. It may
// fail (remote service error, timeout) instead of panicking; a panic is
// captured into a typed error at the invocation boundary. Returned errors
// are classified by the resilience package — wrap them in *resilience.Error
// to control retryability; plain errors default to transient (retried). The
// context carries the per-call deadline; bodies that honor it return
// promptly on cancellation (return ctx.Err() unwrapped).
type UDFBody func(ctx context.Context, v table.Value) (bool, error)

// UDF is a registered expensive predicate: a named boolean function of one
// column, with a per-invocation cost (the paper's o_e).
type UDF struct {
	Name string
	Body UDFBody
	// Cost is o_e for this UDF; zero means core.DefaultCost's.
	Cost float64
}

// Registry holds named UDFs. It is safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	udfs map[string]UDF
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{udfs: make(map[string]UDF)}
}

// Register adds or replaces a UDF. The name must be non-empty and the body
// set.
func (r *Registry) Register(u UDF) error {
	if u.Name == "" {
		return fmt.Errorf("engine: UDF with empty name")
	}
	if u.Body == nil {
		return fmt.Errorf("engine: UDF %q has no body", u.Name)
	}
	if u.Cost < 0 {
		return fmt.Errorf("engine: UDF %q has negative cost", u.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.udfs[u.Name] = u
	return nil
}

// Has reports whether a UDF with the given name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.udfs[name]
	return ok
}

// Lookup fetches a UDF by name.
func (r *Registry) Lookup(name string) (UDF, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.udfs[name]
	if !ok {
		return UDF{}, fmt.Errorf("engine: unknown UDF %q", name)
	}
	return u, nil
}

// Names lists the registered UDF names in sorted order, so callers that
// render or persist the list get the same bytes on every run.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.udfs))
	for n := range r.udfs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
