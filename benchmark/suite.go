package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// The suite runs every workload the way the driver does — one child
// process per run, reading the result line — so a workload's peak
// memory and warmed caches never leak into the next one's numbers.

// runChild runs one workload in a child process, passes its report
// through, and returns its result line.
func runChild(self, workload string, seed int64, seconds float64, trace bool) (result, error) {
	var res result
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if runErr != nil {
		if last != nil {
			fmt.Println(string(last))
		}
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runSuite runs all workloads sets times, alternating their order
// (ABCD, DCBA, …). With two or more sets it is the A/A check: the same
// code measured twice must agree, on every end-to-end metric of every
// workload, within the metric's bound — in either direction, since
// neither set is the parent.
func runSuite(seed int64, seconds float64, trace bool, sets int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	all := make([]map[string]result, sets)
	for set := range all {
		all[set] = map[string]result{}
		for i := range workloads {
			w := workloads[i]
			if set%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			fmt.Printf("--- set %d: %s\n", set+1, w.name)
			res, err := runChild(self, w.name, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			all[set][w.name] = res
			if trace {
				if _, err := runChild(self, w.name, seed, seconds, true); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
		}
	}
	if sets < 2 {
		return 0
	}
	fmt.Println("--- A/A: largest disagreement between sets, as a share of set 1")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			worst := 0.0
			base := all[0][w.name].Metrics[m.Name].Value
			for _, set := range all[1:] {
				worst = max(worst, math.Abs(set[w.name].Metrics[m.Name].Value-base)/base)
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("  %-14s %-18s %7.4f  bound %.2f  %s\n", w.name, m.Name, worst, m.Bound, verdict)
		}
	}
	return code
}
