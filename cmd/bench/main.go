// Command bench is the repository's benchmark: four fixed-work workloads
// over the whole PDMS pipeline (pose a query at a peer, reformulate, execute
// across peers or locally, answer), ten end-to-end metrics reported by every
// workload, and a traced run that says per layer where the time and the work
// went. README.md in this directory defines every workload and metric and
// the measurement protocol; BENCHMARK.json at the root of the repository
// declares them to the driver.
//
// Run it from the root of the repository through its wrapper, which builds
// this module first:
//
//	bash cmd/bench/run.sh                        all workloads, one process each
//	bash cmd/bench/run.sh --workload join_mixed  one workload
//	bash cmd/bench/run.sh --trace 1              the traced run (per-layer metrics)
//	bash cmd/bench/run.sh --smoke                tiny sizes, a few seconds in all
//	bash cmd/bench/run.sh --compare A.json B.json
//	bash cmd/bench/run.sh --selfcompare 5
//
// A run of one workload prints every metric by name with its unit and ends
// its standard output with one JSON object: correct, attempted, failed and
// metrics. It exits non-zero when any op or check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is the length of the measured phase the op counts are
// sized for when --seconds is not given; BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command line of one invocation.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	smoke       bool
	outDir      string
	compare     bool
	selfcompare int
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this workload only, in this process (default: all, one process each)")
	fs.Int64Var(&o.seed, "seed", 16, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured phase the op sequence is sized for")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny data and op counts (self-test scale)")
	fs.StringVar(&o.outDir, "out", "cmd/bench/out", "directory for output files, traces and scratch data")
	fs.BoolVar(&o.compare, "compare", false, "compare two run-set files: -compare A.json B.json")
	fs.IntVar(&o.selfcompare, "selfcompare", 0, "make N alternating pairs of runs of this same code and compare the two sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Two cores at most: the reference box has two, and a fixed ceiling
	// keeps numbers from a bigger machine comparable in shape.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case o.selfcompare > 0:
		return selfCompare(o)
	case o.workload == "":
		failed := 0
		for i := range workloads {
			if _, err := runChild(o, workloads[i].name, o.seed); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed++
			}
		}
		if failed > 0 {
			return 1
		}
		return 0
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	rec, err := runWorkload(runConfig{w: w, seed: o.seed, sc: scale{smoke: o.smoke, seconds: o.seconds}, trace: o.trace != 0, outDir: o.outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path, err := writeRecord(rec, o.outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	report(os.Stdout, rec, path)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// report prints the record for a reader, then the one-line JSON result the
// driver reads.
func report(w io.Writer, rec *record, path string) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d clients=%d loop=%s sockets=%q gomaxprocs=%d measured_phase_s=%.2f queries=%d\n",
		rec.Workload, rec.Seed, rec.Clients, rec.Loop, rec.Sockets, rec.Env.GOMAXPROCS, rec.PhaseSeconds, rec.Queries)
	for _, d := range defs {
		v := rec.Metrics[d.name]
		line := fmt.Sprintf("%-14s %-36s %14.4f %-6s", rec.Workload, d.name, v.Value, v.Unit)
		if v.Min != 0 || v.Max != 0 {
			line += fmt.Sprintf(" [%.4f .. %.4f]", v.Min, v.Max)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "%-14s %-36s %14d\n%-14s %-36s %14d\n", rec.Workload, "ops_attempted", rec.Attempted, rec.Workload, "ops_failed", rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "# failed: %s\n", e)
	}
	for _, name := range rec.ModeBoundary {
		fmt.Fprintf(w, "# warning: mode boundary within 5 percentile points of %s\n", name)
	}
	if rec.Env.NoisyHost {
		fmt.Fprintf(w, "# warning: noisy_host (load average %.2f at start on %d CPUs)\n", rec.Env.LoadStart, rec.Env.NProc)
	}
	fmt.Fprintf(w, "# written to %s\n", path)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.name] = mv{rec.Metrics[d.name].Value, d.unit}
	}
	b, _ := json.Marshal(out) // numbers and strings only
	fmt.Fprintln(w, string(b))
}

// runChild runs one workload in a process of its own, relays its report
// and returns its record.
func runChild(o options, workload string, seed int64) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	b, err := os.ReadFile(recordPath(o.outDir, workload, o.trace != 0))
	if err != nil {
		return nil, err
	}
	rec := new(record)
	return rec, json.Unmarshal(b, rec)
}

// envRecord is where and when a run was made.
type envRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// NoisyHost is set when the run started with a 1-minute load average
	// above half the CPU count: its numbers are a sample of the host, not
	// of the program.
	NoisyHost bool `json:"noisy_host"`
}

func envStart() envRecord {
	e := envRecord{
		Commit: commit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadStart: load1(),
	}
	e.NoisyHost = e.LoadStart > float64(e.NProc)/2
	return e
}

func (e *envRecord) finish() { e.LoadEnd = load1() }

// commit reads the checked-out commit from .git, without running git. A
// checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
