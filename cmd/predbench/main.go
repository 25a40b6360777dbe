// Command predbench is the repository's benchmark of record: eight
// workloads, end-to-end and per-layer metrics, every answer checked
// against ground truth, and a traced pass that attributes an op's time to
// the layers it crossed. BENCHMARK.json at the module root declares the
// workloads, the metrics, their units and their bounds; README.md beside
// this file explains why each exists.
//
//	go run ./cmd/predbench -seed 1                  every workload, both passes
//	go run ./cmd/predbench -workload exact_scan -seed 1 -seconds 6 -trace 0
//	go run ./cmd/predbench -compare A.json B.json   regression check
//
// With -workload the last line of standard output is one JSON object —
// correct, attempted, failed, metrics — carrying the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). Each workload runs in a
// fresh child process (this program re-executes itself), so heap state
// and peak RSS do not carry over from one to the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	outDir   string
	specPath string
	compare  bool
	child    string
	workDir  string
	server   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the result line (default: run them all)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for dataset generation, predeval.Open and statement order")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of measured rounds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join("cmd", "predbench", "out"), "directory for results, traces and scratch files")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark declaration")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: predbench -compare A.json B.json")
	flag.StringVar(&o.child, "child", "", "internal: this process is a workload child (measure or setup)")
	flag.StringVar(&o.workDir, "workdir", "", "internal: the child's scratch directory")
	flag.StringVar(&o.server, "server-bin", "", "internal: the predsqld binary serve_http spawns")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "predbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, o options) (int, error) {
	if o.child != "" {
		return 0, runChild(ctx, o)
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return 2, err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload != "" {
		return runOne(ctx, spec, o)
	}
	return runAll(ctx, spec, o)
}

// runChild is a workload process: it does what -child says and prints its
// runResult as the last line of standard output.
func runChild(ctx context.Context, o options) error {
	res, err := runWorkload(ctx, runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		setupOnly: o.child == "setup", scale: 1,
		outDir: o.outDir, workDir: o.workDir, serverBin: o.server,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// report is one pass of one workload, as the parent assembles it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

// spawn runs one workload child to completion and returns its result. The
// child's scratch directory is removed whatever happens;
// cancelling ctx (a signal, an error elsewhere) ends the child, and the
// child's own server dies with it.
func spawn(ctx context.Context, o options, mode, serverBin string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.outDir, "tmp-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
		"-out", o.outDir, "-workdir", work, "-server-bin", serverBin)
	cmd.Stderr = os.Stderr
	// A cancelled run first asks the child to stop (it drains its server
	// on SIGTERM) and kills it only if it lingers.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	dieWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", o.workload, mode, err)
	}
	var res runResult
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, fmt.Errorf("%s child (%s) result: %w", o.workload, mode, err)
	}
	return &res, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	return out[bytes.LastIndexByte(out, '\n')+1:]
}

// setupRepeats is how many times a run sets up: set-up time is a median,
// so that one slow start does not read as a regression.
const setupRepeats = 3

// measure runs one pass of one workload in child processes and assembles
// the report the spec asks for.
func measure(ctx context.Context, spec *benchSpec, o options) (*report, error) {
	serverBin := ""
	if o.workload == "serve_http" {
		var err error
		if serverBin, err = buildServer(ctx, filepath.Join(o.outDir, "bin")); err != nil {
			return nil, err
		}
	}
	res, err := spawn(ctx, o, "measure", serverBin)
	if err != nil {
		return nil, err
	}
	setups := []float64{res.SetupS}
	for o.trace == 0 && len(setups) < setupRepeats {
		again, err := spawn(ctx, o, "setup", serverBin)
		if err != nil {
			return nil, err
		}
		res.Failed += again.Failed
		res.Failures = append(res.Failures, again.Failures...)
		setups = append(setups, again.SetupS)
	}
	return assemble(spec, o.trace == 1, res, setups)
}

// assemble turns a workload process's result into the pass's report: the
// parent's own measurements added, layers off the workload's path zeroed,
// and the whole held to BENCHMARK.json.
func assemble(spec *benchSpec, traced bool, res *runResult, setups []float64) (*report, error) {
	rep := &report{Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures, Metrics: res.Metrics}
	decl := spec.EndToEnd
	if traced {
		decl = spec.PerLayer
		for _, m := range decl {
			if !applicable(res.Workload, m.Name) {
				rep.Metrics[m.Name] = sample{}
			}
		}
	} else {
		rep.Metrics["setup_s"] = sample{Value: median(setups), Samples: setups}
		if res.ServerRSSMB > 0 {
			// The program under test is the server, not the client.
			rep.Metrics["peak_rss_mb"] = sample{Value: res.ServerRSSMB}
		}
	}
	var err error
	if rep.Metrics, err = conform(decl, rep.Metrics); err != nil {
		return nil, fmt.Errorf("%s: %w", res.Workload, err)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func printReport(workload string, decl []metricSpec, rep *report) {
	for _, m := range decl {
		v := rep.Metrics[m.Name]
		line := fmt.Sprintf("%-16s %-34s %14.6g %-6s", workload, m.Name, v.Value, v.Unit)
		if len(v.Samples) > 1 {
			lo, hi := v.Samples[0], v.Samples[0]
			for _, s := range v.Samples {
				lo, hi = min(lo, s), max(hi, s)
			}
			line += fmt.Sprintf(" [%.6g .. %.6g, n=%d]", lo, hi, len(v.Samples))
		}
		fmt.Println(line)
	}
	fmt.Printf("%-16s %-34s %14.6g %-6s (%d of %d ops)\n", workload, "failed_ratio",
		ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Printf("%-16s FAILURE %s\n", workload, f)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(ctx context.Context, spec *benchSpec, o options) (int, error) {
	if !spec.workload(o.workload) {
		return 2, fmt.Errorf("workload %q is not declared in %s", o.workload, o.specPath)
	}
	rep, err := measure(ctx, spec, o)
	if err != nil {
		return 1, err
	}
	decl := spec.EndToEnd
	if o.trace == 1 {
		decl = spec.PerLayer
	}
	printReport(o.workload, decl, rep)
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]lineMetric{}}
	for name, v := range rep.Metrics {
		line.Metrics[name] = lineMetric{Value: v.Value, Unit: v.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return 1, err
	}
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

// resultFile is what a full run leaves under out/, and what -compare reads.
type resultFile struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Host      hostInfo                  `json:"host"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	EndToEnd *report `json:"end_to_end"`
	PerLayer *report `json:"per_layer"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runAll runs every declared workload, untraced then traced, prints every
// metric and writes the result file.
func runAll(ctx context.Context, spec *benchSpec, o options) (int, error) {
	out := resultFile{Seed: o.seed, Seconds: o.seconds, Host: host(), Workloads: map[string]workloadResult{}}
	correct := true
	for _, w := range spec.Workloads {
		o.workload = w.Name
		var wr workloadResult
		for _, pass := range []struct {
			trace int
			decl  []metricSpec
			into  **report
		}{{0, spec.EndToEnd, &wr.EndToEnd}, {1, spec.PerLayer, &wr.PerLayer}} {
			o.trace = pass.trace
			rep, err := measure(ctx, spec, o)
			if err != nil {
				return 1, err
			}
			printReport(w.Name, pass.decl, rep)
			correct = correct && rep.Correct
			*pass.into = rep
		}
		out.Workloads[w.Name] = wr
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return 1, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Println("wrote", path)
	if !correct {
		return 1, errors.New("at least one workload failed its correctness checks")
	}
	return 0, nil
}
