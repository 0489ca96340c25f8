package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line one invocation prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// compare implements "compare A B": A and B are directories of saved
// end-to-end outputs, one file per invocation, each named after its
// workload (locking-1.out, locking-2.out, ...). For every workload and
// end-to-end metric it prints both sides' quartiles and a verdict
// against the metric's bound in BENCHMARK.json: "within" when B's
// median is no worse than A's by more than the bound, "worse" when it
// is, and "unresolved" when either side's spread is wider than the
// bound. It fails if any verdict is not "within".
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare DIR_A DIR_B")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, wl := range sp.Workloads {
		names = append(names, wl.Name)
	}
	a, err := loadRuns(args[0], names)
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1], names)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-11s %-16s %5s %38s %38s %7s %s\n", "workload", "metric", "bound", "A q1/median/q3 (n)", "B q1/median/q3 (n)", "delta", "verdict")
	for _, wl := range names {
		if len(a[wl]) == 0 && len(b[wl]) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			xa, xb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-11s %-16s missing on one side\n", wl, m.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			delta := (b2 - a2) / a2
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "within"
			switch {
			case spread(xa) > m.Bound || spread(xb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "within" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-16s %5.2f %11.4g %11.4g %11.4g (%d) %11.4g %11.4g %11.4g (%d) %+6.1f%% %s\n",
				wl, m.Name, m.Bound, a1, a2, a3, len(xa), b1, b2, b3, len(xb), 100*delta, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) not within their bound", bad)
	}
	return nil
}

// loadRuns reads every file in dir whose name starts with a workload
// name, taking its last line as that invocation's result.
func loadRuns(dir string, workloads []string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]result)
	for _, e := range entries {
		i := slices.IndexFunc(workloads, func(wl string) bool { return strings.HasPrefix(e.Name(), wl) })
		if e.IsDir() || i < 0 {
			continue
		}
		r, err := lastResult(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run was not correct", e.Name())
		}
		out[workloads[i]] = append(out[workloads[i]], r)
	}
	return out, nil
}

func lastResult(path string) (result, error) {
	var r result
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s: last line: %w", path, err)
	}
	return r, nil
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
