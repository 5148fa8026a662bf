package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runChild runs this binary with args, passing its standard error
// through, and waits for it.
func runChild(exe string, args ...string) error {
	_, err := childOutput(exe, args...)
	return err
}

func childOutput(exe string, args ...string) ([]byte, error) {
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	return out.Bytes(), err
}

// steadiness repeats the workload o.steady times on seeds o.seed,
// o.seed+1, ..., each run a child process, and prints each metric's
// median, quartiles and quartile spread as a share of the median — the
// figures the bounds in BENCHMARK.json are set against.
func steadiness(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed int
	for k := 0; k < o.steady; k++ {
		seed := o.seed + int64(k)
		out, err := childOutput(exe, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-work", o.work)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("seed %d: %s\n", seed, l)
			// The wall-clock figures behind the steal-corrected
			// times get their own quartiles, as raw.<name>.
			if rest, ok := strings.CutPrefix(l, "raw: "); ok {
				for _, kv := range strings.Fields(rest) {
					k, v, _ := strings.Cut(kv, "=")
					if x, err := strconv.ParseFloat(v, 64); err == nil {
						values["raw."+k] = append(values["raw."+k], x)
					}
				}
			}
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !rep.Correct {
			return fmt.Errorf("run with seed %d reported incorrect results", seed)
		}
		attempted += rep.Attempted
		failed += rep.Failed
		var parts []string
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, m.Value))
		}
		sort.Strings(parts)
		fmt.Printf("seed %d: attempted=%d failed=%d %s\n", seed, rep.Attempted, rep.Failed, strings.Join(parts, " "))
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, %d campaigns attempted, %d failed\n", o.workload, o.steady, attempted, failed)
	fmt.Printf("%-28s %12s %12s %12s %9s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %8.2f%% %s\n", name, q1, q2, q3, spread*100, units[name])
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method): positions (n+1)p, interpolated.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
