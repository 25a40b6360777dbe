package lint

// Default targeting for this repository. Analyzers flag every occurrence
// of their pattern in the packages they are handed; this table decides
// which packages that is. The rationale per analyzer:
//
//	detrand      result-producing packages: everything on the path from a
//	             parsed query to rows/Stats/persisted evidence — including
//	             internal/ml: GROUP ON virtual puts its regression, encoder
//	             and bucketing on the row-producing path (the one offline
//	             trainer, self-training, lives in internal/experiments).
//	             Excluded: internal/experiments and internal/dataset
//	             (offline harnesses that legitimately measure wall-clock
//	             time and generate data), cmd/* (entry points report real
//	             timestamps in /stats), and
//	             internal/obs — the ONE sanctioned wall-clock package:
//	             every timer, span and histogram observation routes
//	             through obs.Now/obs.Since, so a time.Now() appearing in
//	             any data-path package is a determinism bug, not a
//	             measurement (no blanket //predlint:allow — the carve-out
//	             is this table, pinned by TestDefaultTargetsObsCarveOut).
//	ctxflow      the UDF-invoking call chain PR 2 made cancellable.
//	             Excluded: cmd/* (servers mint their own root contexts).
//	gospawn      everywhere except the two packages whose whole point is
//	             owning goroutines (internal/exec pool, internal/resilience
//	             call-timeout watchdog) and cmd entry points (server
//	             lifecycle).
//	maporder     packages producing rows, Stats, evidence or durable
//	             records. Excluded: cmd/* (human-facing printouts are
//	             sorted where it matters and irrelevant where not),
//	             offline harnesses.
//	errtaxonomy  the invocation boundary: resilience itself, the pool, the
//	             engine and core (where verdict-shaped functions live).
//	atomicwrite  internal/catalog, the only package that owns durable
//	             files.
//	atomicmix    the whole module: a function-style sync/atomic call opens
//	             the door to a mixed atomic/plain access wherever it appears.
//
// The module root package ("") is predeval, the public API — it is on
// every data path, so it is included everywhere.

// ModulePath is the import path of the module predlint targets.
const ModulePath = "repro"

// DefaultTargets maps each analyzer to its package selector.
func DefaultTargets() map[string]*Target {
	dataPath := []string{
		"", "internal/core", "internal/engine", "internal/plan", "internal/solver",
		"internal/stats", "internal/catalog", "internal/exec", "internal/labels",
		"internal/table", "internal/sqlparse", "internal/resilience", "internal/ml",
	}
	// internal/obs produces deterministic output from map-shaped state
	// (metric families, label sets), so ordered emission applies to it —
	// but it is deliberately NOT a detrand target (see the package doc).
	mapOrdered := append(append([]string{}, dataPath...), "internal/obs")
	return map[string]*Target{
		"detrand": {Module: ModulePath, Include: dataPath},
		"ctxflow": {Module: ModulePath, Include: []string{
			"", "internal/core", "internal/engine", "internal/exec",
			"internal/plan", "internal/resilience",
		}},
		"gospawn": {Module: ModulePath, Exclude: []string{
			"internal/exec", "internal/resilience", "cmd",
		}},
		"maporder": {Module: ModulePath, Include: mapOrdered},
		"errtaxonomy": {Module: ModulePath, Include: []string{
			"", "internal/core", "internal/engine", "internal/exec", "internal/resilience",
		}},
		"atomicwrite": {Module: ModulePath, Include: []string{"internal/catalog"}},
		"atomicmix":   {Module: ModulePath},
	}
}
