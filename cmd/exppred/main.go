// Command exppred reproduces the paper's tables and figures.
//
// Usage:
//
//	exppred -list
//	exppred -exp fig1a
//	exppred -exp all -scale 0.25 -iters 10 -seed 7
//
// Every experiment prints the same rows/series the paper reports (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results). -scale shrinks the synthetic datasets proportionally while
// preserving their calibrated statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams (testable): it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exppred", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "", "experiment id, comma-separated list, or 'all'")
		list  = fs.Bool("list", false, "list experiment ids and exit")
		scale = fs.Float64("scale", 1.0, "dataset scale factor (1 = paper sizes)")
		iters = fs.Int("iters", 0, "override per-experiment iteration counts")
		seed  = fs.Uint64("seed", 1, "random seed")
		alpha = fs.Float64("alpha", 0.8, "default precision bound")
		beta  = fs.Float64("beta", 0.8, "default recall bound")
		rho   = fs.Float64("rho", 0.8, "default satisfaction probability")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Fprintf(stdout, "%-16s %s\n", id, e.Title)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "exppred: specify -exp <id>|all or -list")
		fs.Usage()
		return 2
	}

	runner := experiments.New(experiments.Config{
		Seed:       *seed,
		Scale:      *scale,
		Iterations: *iters,
		Alpha:      *alpha,
		Beta:       *beta,
		Rho:        *rho,
		Out:        stdout,
	})

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for _, id := range ids {
		start := time.Now()
		if _, err := runner.Run(context.Background(), id); err != nil {
			fmt.Fprintf(stderr, "exppred: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
