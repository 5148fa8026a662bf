// Command campaignbench is the repository's standing benchmark: four
// closed-loop fault-campaign workloads (daemon, fabric, caps-adaptive,
// ecu-seu), each printing five end-to-end metrics and checking every
// campaign result against an oracle it did not produce. With -trace 1
// the same workload runs once untraced and once traced, and the run
// reports per-layer metrics, per-layer self time and a Chrome trace
// instead. See README.md for the workloads, metrics and recorded runs.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	campaignbench -workload daemon -seed 1 -seconds 10 -trace 0
//	campaignbench -workload ecu-seu -steady 10 -seed 1   # steadiness mode
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	// reference names the file a reference child writes its oracle
	// results to; set only in the child.
	reference string
	// steady > 0 selects steadiness mode: that many runs on seeds
	// seed, seed+1, ...
	steady int
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: daemon, fabric, caps-adaptive or ecu-seu")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for run data and traces")
	flag.StringVar(&o.reference, "reference", "", "internal: compute the oracle results into this file and exit")
	flag.IntVar(&o.steady, "steady", 0, "steadiness mode: repeat the workload this many times on consecutive seeds")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 0 || o.seconds > 600 {
		return fmt.Errorf("seconds %d out of range 0..600", o.seconds)
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		return err
	}
	o.work = work
	if o.steady > 0 {
		return steadiness(o)
	}
	if o.reference != "" {
		return writeReference(w, o)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := w.inputs(o.seed)
	if err != nil {
		return err
	}
	refs, err := childReference(o, dir)
	if err != nil {
		return err
	}
	var rep *report
	if o.trace {
		rep, err = tracedRun(w, o, in, refs, dir)
	} else {
		rep, err = measuredRun(w, o, in, refs, dir)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeReference is the reference child: it computes the oracle
// results for the workload's inputs and writes them to o.reference.
// Running it in its own process keeps the oracle's work out of the
// measured process's set-up time and peak resident set.
func writeReference(w *workload, o options) error {
	in, err := w.inputs(o.seed)
	if err != nil {
		return err
	}
	refs, err := w.reference(in)
	if err != nil {
		return err
	}
	data, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(o.reference, data, 0o644)
}

// childReference runs the reference child for o and reads its output.
func childReference(o options, dir string) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "reference.json")
	if err := runChild(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-work", o.work, "-reference", out); err != nil {
		return nil, fmt.Errorf("reference child: %w", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var refs []string
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("reference child output: %w", err)
	}
	return refs, nil
}
