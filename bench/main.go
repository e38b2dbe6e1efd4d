// Command bench is the repository's benchmark: one steady-state,
// layer-attributed measurement per named workload. BENCHMARK.json at the
// repository root names the metrics and workloads; README.md in this
// directory explains them.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -workload rack8-stream   one workload
//	go run ./bench -trace 1                 per-layer metrics (separate traced pass)
//	go run ./bench -selfcheck               two back-to-back sets must agree
//	go run ./bench -quick                   20x shorter regions (smoke test)
//
// With -workload the measurement runs in this process, so peak_rss_mb is
// that workload's alone; without it the harness re-executes itself once
// per workload. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports. The contract line keeps
// only Attempted, Failed and Metrics; the rest is the detail line the
// all-workloads and -selfcheck modes read back from their children.
type result struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	Digest    string               `json:"target_digest"`
	Metrics   map[string]metric    `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`

	// shardRSSMiB is the shard processes' summed peak resident sets
	// (distributed workloads only).
	shardRSSMiB float64
}

func newResult(w string, seed uint64) *result {
	return &result{Workload: w, Seed: seed, Metrics: map[string]metric{}, Samples: map[string][]float64{}}
}

// set records a single-valued metric.
func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// sample records a metric as the median of its samples and keeps them.
func (r *result) sample(name, unit string, xs []float64) {
	r.set(name, unit, median(xs))
	r.Samples[name] = xs
}

// op counts one measured operation (a region, a repetition).
func (r *result) op(err error) { r.check("run", errText(err)) }

// check counts one operation or verification; problem "" means it passed.
func (r *result) check(what, problem string) {
	r.Attempted++
	if problem != "" {
		r.Failed++
		r.Failures = append(r.Failures, what+": "+problem)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "shard" {
		return shardMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "run only this workload (default: all, one child process each)")
	fs.Uint64Var(&opt.seed, "seed", 42, "workload seed: DeployConfig.Seed and the memwalk permutation")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "measuring time the pinned horizons are scaled to")
	trace := fs.Int("trace", 0, "1 = traced pass reporting the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "cut every region 20x (verification stays on)")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and fail if the sets disagree beyond the bounds")
	fs.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for traces and checkpoint scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	opt.trace = *trace != 0
	if *quick {
		opt.seconds /= 20
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	switch {
	case *selfcheck:
		return selfCheck(opt, stdout)
	case opt.workload == "":
		results, code := runAll(opt, stdout)
		printSummary(stdout, results, opt.trace)
		return code
	}
	w := findWorkload(opt.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	res := newResult(w.name, opt.seed)
	var err error
	switch {
	case w.dist && opt.trace:
		err = traceDist(w, opt, res)
	case w.dist:
		err = runDist(w, opt, res)
	case opt.trace:
		err = traceInproc(w, opt, res)
	default:
		err = runInproc(w, opt, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if !opt.trace {
		res.set("peak_rss_mb", "MiB", selfUsage().rssMiB+res.shardRSSMiB)
	}
	res.print(stdout)
	return 0
}

// print writes the human-readable report, the detail line and — last —
// the contract line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d (GOMAXPROCS %d, %s)\n", r.Workload, r.Seed, runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-36s %16.6g %-6s", n, m.Value, m.Unit)
		if xs := r.Samples[n]; len(xs) > 0 {
			line += fmt.Sprintf(" median of n=%d, IQR/median %.2f%%", len(xs), 100*spread(xs))
			if p, ok := highestPercentile(len(xs)); ok {
				line += fmt.Sprintf(", p%g %.6g", p, percentile(xs, p))
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops %d failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  target_digest %s\n", r.Digest)

	detail, _ := json.Marshal(struct {
		Detail *result `json:"detail"`
	}{r})
	fmt.Fprintf(w, "%s\n", detail)
	contract, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", contract)
}

// runAll runs every workload in a child process of its own and returns
// their results in table order.
func runAll(opt options, stdout io.Writer) ([]*result, int) {
	var out []*result
	code := 0
	for i := range workloads {
		res, err := runChild(workloads[i].name, opt, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workloads[i].name, err)
			code = 1
			continue
		}
		if res.Failed > 0 {
			code = 1
		}
		out = append(out, res)
	}
	return out, code
}

// runChild re-executes the harness for one workload, relays its report
// and parses the detail line back.
func runChild(name string, opt options, stdout io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds),
		"-trace", trace,
		"-out", opt.outDir)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	var res *result
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"detail":`):
			var d struct {
				Detail *result `json:"detail"`
			}
			if json.Unmarshal([]byte(line), &d) == nil {
				res = d.Detail
			}
		case strings.HasPrefix(line, `{"correct":`):
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no result")
	}
	return res, nil
}

// printSummary prints one row per workload of the headline metrics.
func printSummary(w io.Writer, results []*result, trace bool) {
	if trace || len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-16s %14s %6s %10s %12s %5s %6s\n", "workload", "sim_rate_hz", "n", "setup_s", "peak_rss_mb", "ops", "failed")
	for _, r := range results {
		fmt.Fprintf(w, "%-16s %14.6g %6d %10.4f %12.1f %5d %6d\n", r.Workload,
			r.Metrics["sim_rate_hz"].Value, len(r.Samples["sim_rate_hz"]),
			r.Metrics["setup_s"].Value, r.Metrics["peak_rss_mb"].Value, r.Attempted, r.Failed)
	}
}
