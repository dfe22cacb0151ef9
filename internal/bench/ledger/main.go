// Command ledger appends this checkout's end-to-end benchmark numbers to the
// per-PR trajectory BENCH_e2e.json: for every seed it runs each workload
// BENCHMARK.json declares, with the command and window BENCHMARK.json names,
// and records the end-to-end metrics of the run's last stdout line as one
// point keyed by label, commit and seed.
//
// Usage (≈2 min a seed; not a CI step — a shared runner is too noisy):
//
//	go run ./internal/bench/ledger -label "PR 16" -seeds 1,20260925
//
// -repo measures another checkout (the parent commit's, say) while still
// appending to this one's ledger.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// spec is what the ledger reads of BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []named  `json:"workloads"`
	EndToEnd   []named  `json:"end_to_end"`
}

type named struct {
	Name string `json:"name"`
}

// ledger is BENCH_e2e.json.
type ledger struct {
	Points []point `json:"points"`
}

// point is one checkout measured on one seed.
type point struct {
	Label     string                 `json:"label"`
	Commit    string                 `json:"commit"` // "+dirty": HEAD plus uncommitted changes
	Seed      int64                  `json:"seed"`
	Workloads map[string]measurement `json:"workloads"`
}

// measurement is one workload's run: the end-to-end metrics by name, in the
// units BENCHMARK.json gives them, and the run's own verdict.
type measurement struct {
	Metrics   map[string]float64 `json:"metrics"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// parseRun reads the benchmark's last stdout line, the JSON its driver reads.
func parseRun(stdout []byte, metrics []named) (measurement, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return measurement{}, fmt.Errorf("last stdout line is not the result JSON: %w", err)
	}
	m := measurement{Metrics: map[string]float64{}, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed}
	for _, name := range metrics {
		v, ok := line.Metrics[name.Name]
		if !ok {
			return measurement{}, fmt.Errorf("run reported no %s", name.Name)
		}
		m.Metrics[name.Name] = v.Value
	}
	return m, nil
}

// commitOf names the checkout's HEAD, marked when the tree differs from it.
func commitOf(repo string) (string, error) {
	head, err := exec.Command("git", "-C", repo, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse in %s: %w", repo, err)
	}
	status, err := exec.Command("git", "-C", repo, "status", "--porcelain").Output()
	if err != nil {
		return "", fmt.Errorf("git status in %s: %w", repo, err)
	}
	commit := strings.TrimSpace(string(head))
	if len(bytes.TrimSpace(status)) > 0 {
		commit += "+dirty"
	}
	return commit, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ledger: ")
	var (
		label = flag.String("label", "", "what this point is, e.g. \"PR 16\" (required)")
		seeds = flag.String("seeds", "1", "comma-separated benchmark seeds, one point each")
		repo  = flag.String("repo", ".", "checkout to measure")
		out   = flag.String("out", "BENCH_e2e.json", "ledger to append to")
	)
	flag.Parse()
	if *label == "" {
		log.Fatal("-label is required")
	}
	var sp spec
	if err := readJSON(filepath.Join(*repo, "BENCHMARK.json"), &sp); err != nil {
		log.Fatal(err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.Workloads) == 0 {
		log.Fatalf("%s/BENCHMARK.json names no command, window or workloads", *repo)
	}
	commit, err := commitOf(*repo)
	if err != nil {
		log.Fatal(err)
	}
	var led ledger
	if err := readJSON(*out, &led); err != nil && !errors.Is(err, fs.ErrNotExist) {
		log.Fatal(err)
	}

	for _, field := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			log.Fatalf("-seeds: %v", err)
		}
		p := point{Label: *label, Commit: commit, Seed: seed, Workloads: map[string]measurement{}}
		for _, w := range sp.Workloads {
			args := append(append([]string(nil), sp.Command[1:]...),
				"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
			cmd := exec.Command(sp.Command[0], args...)
			cmd.Dir = *repo
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				log.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			m, err := parseRun(stdout, sp.EndToEnd)
			if err != nil {
				log.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			log.Printf("%s %s seed %d: %v", commit, w.Name, seed, m.Metrics)
			p.Workloads[w.Name] = m
		}
		// Written after every seed, so an interrupted run keeps its points.
		led.Points = append(led.Points, p)
		b, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
