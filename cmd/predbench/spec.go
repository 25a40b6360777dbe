package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// BENCHMARK.json is the one place metric names, units, directions and
// bounds are declared: the program reads it for printing and comparing,
// and refuses to report a metric it does not declare (or to omit one it
// does), so the file and the code cannot drift apart.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: bad or duplicate metric name %q", path, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better=%q", path, m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: no workloads, end-to-end metrics or run_seconds", path)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// sample is one reported metric value; Samples holds the per-round (or
// per-repetition) values the headline median was taken over.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// conform checks got against the declared metrics — every declared name
// present, nothing undeclared — and stamps the declared units on.
func conform(decl []metricSpec, got map[string]sample) (map[string]sample, error) {
	out := make(map[string]sample, len(decl))
	var missing []string
	for _, m := range decl {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics do not match BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return out, nil
}
