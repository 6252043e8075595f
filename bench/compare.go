package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, and the metric's bound. It
// fails when any difference exceeds its bound or a workload is missing.
func compareFiles(pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (%s, git %s, seed %d)\nb: %s (%s, git %s, seed %d)\n",
		pathA, a.Run.CPU, a.Run.GitSHA, a.Run.Seed, pathB, b.Run.CPU, b.Run.GitSHA, b.Run.Seed)
	fmt.Printf("%-20s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	over := 0
	for _, w := range workloads {
		ra, okA := a.Workloads[w.Name]
		rb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			fmt.Printf("%-20s missing from a result file\n", w.Name)
			over++
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			flag := ""
			if worse > m.Bound {
				flag = "  EXCEEDS"
				over++
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, flag)
		}
		if rb.Failed > 0 || !rb.Correct {
			fmt.Printf("%-20s b: %d of %d operations failed, correct=%v\n", w.Name, rb.Failed, rb.Attempted, rb.Correct)
			over++
		}
	}
	if over > 0 {
		return fmt.Errorf("%d comparisons outside their bounds", over)
	}
	fmt.Println("every workload x end-to-end metric within its bound")
	return nil
}
