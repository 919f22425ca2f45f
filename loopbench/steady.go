package main

// The steadiness command: runs every workload of BENCHMARK.json repeatedly,
// one process per run and seeds 1, 2, ..., as a regression gate would, for
// the spec's run_seconds each, and prints each end-to-end metric's median
// and quartiles against its bound, the share of failed operations, and the
// host probe and steal. A set whose runs lost much CPU time to the
// hypervisor is reported as unresolved rather than steady: its timings say
// nothing about the program.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// specPath is the benchmark definition, relative to the checkout root.
const specPath = "BENCHMARK.json"

// disturbedStealPct is the hypervisor steal share (of machine CPU time)
// above which a run's timings are host-disturbed. On the reference host,
// sets whose steal stayed below it repeated every timing within a third of
// its bound or close to it; sets with a quarter of their runs above it
// spread past the bounds or shifted their medians by 30-50%.
const disturbedStealPct = 5.0

// hostFree are the end-to-end metrics that count bytes, not time: the host
// cannot disturb them, so they are gated on every set.
var hostFree = map[string]bool{"ratio": true, "zmeshd_alloc_b_per_b": true}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload; run i uses seed i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	wide, unresolved := false, false
	for _, w := range spec.Workloads {
		name := w.Name
		values := map[string][]float64{}
		var probes, memProbes, steals []float64
		attempted, failed := 0, 0
		for i := 0; i < *runs; i++ {
			seed := int64(i + 1)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, probe, memProbe, steal, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run reported correct=false", name, seed)
			}
			probes = append(probes, probe)
			memProbes = append(memProbes, memProbe)
			steals = append(steals, steal)
			attempted += res.Attempted
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Printf("  run seed %d: probe %.2f/%.2f ms steal %.2f%%", seed, probe, memProbe, steal)
			for _, e := range spec.EndToEnd {
				fmt.Printf(" %s=%.5g", e.Name, res.Metrics[e.Name].Value)
			}
			fmt.Println()
		}
		s1, s3 := quartiles(steals)
		disturbed := s3 > disturbedStealPct
		fmt.Printf("%s: %d runs, failed %d of %d operations\n", name, *runs, failed, attempted)
		fmt.Printf("  %-22s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, e := range spec.EndToEnd {
			v := values[e.Name]
			if len(v) == 0 {
				return fmt.Errorf("%s: no values for %s", name, e.Name)
			}
			med := median(v)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			verdict := "steady (< bound/3)"
			switch {
			case disturbed && !hostFree[e.Name]:
				verdict, unresolved = "UNRESOLVED (host-disturbed)", true
			case spread > e.Bound:
				verdict, wide = "WIDER THAN BOUND", true
			case spread > e.Bound/3:
				verdict = "within bound, above bound/3"
			}
			fmt.Printf("  %-22s %12.5g %12.5g %12.5g %8.4f %7.3f  %s\n", e.Name+" ("+e.Unit+")", med, q1, q3, spread, e.Bound, verdict)
		}
		q1, q3 := quartiles(probes)
		m1, m3 := quartiles(memProbes)
		fmt.Printf("  host probe: cpu median %.2f ms, quartiles %.2f..%.2f; mem median %.2f ms, quartiles %.2f..%.2f\n",
			median(probes), q1, q3, median(memProbes), m1, m3)
		fmt.Printf("  host steal: median %.2f%%, quartiles %.2f..%.2f%%", median(steals), s1, s3)
		if disturbed {
			fmt.Printf(" — above %.0f%% in more than a quarter of the runs: host-disturbed, timings unresolved", disturbedStealPct)
		}
		fmt.Println()
	}
	switch {
	case wide:
		return fmt.Errorf("at least one end-to-end metric spread wider than its bound")
	case unresolved:
		return fmt.Errorf("host-disturbed: timing metrics unresolved; repeat while the host's steal stays below %.0f%%", disturbedStealPct)
	}
	return nil
}

// parseRun reads one run's result line (its last line), host probes and
// steal share.
func parseRun(out []byte) (*result, float64, float64, float64, error) {
	var last string
	cpu, mem, steal := -1.0, -1.0, -1.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "loopbench: host probe "); ok {
			if f := strings.Fields(rest); len(f) >= 5 {
				cpu, _ = strconv.ParseFloat(f[0], 64)
				mem, _ = strconv.ParseFloat(f[3], 64)
			}
		}
		if rest, ok := strings.CutPrefix(line, "loopbench: host steal "); ok {
			steal, _ = strconv.ParseFloat(strings.TrimSuffix(strings.Fields(rest)[0], "%"), 64)
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return &res, cpu, mem, steal, nil
}
