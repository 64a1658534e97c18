// golden.go holds the committed report digests of the simulation
// workloads. A model change that alters a report must update them in a
// benchmark-only change first (see README.md).
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ingest"
	"repro/internal/spec"
)

// goldenSeeds are the seeds with committed digests; 7 is held out, never
// used while tuning the benchmark.
var goldenSeeds = []int64{42, 7}

// goldenEntry pins one spec run: its content address and the sha256 of its
// rendered report.
type goldenEntry struct {
	Spec   string `json:"spec"`
	Report string `json:"report"`
}

//go:embed golden/reports.json
var goldenJSON []byte

// goldenKey names a workload's entries for a seed and input size.
func goldenKey(workload string, seed int64, quick bool) string {
	k := fmt.Sprintf("%s seed=%d", workload, seed)
	if quick {
		k += " quick"
	}
	return k
}

// goldenFor returns the committed digests by job label, or nil if none are
// committed for this seed.
func goldenFor(workload string, seed int64, quick bool) map[string]goldenEntry {
	var all map[string]map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic(fmt.Sprintf("bench: embedded golden/reports.json: %v", err)) // the build embeds a broken file
	}
	return all[goldenKey(workload, seed, quick)]
}

// writeGoldens recomputes every digest through the program's own entry
// points, spec.RunSim and spec.ReplayTrace, and rewrites
// golden/reports.json in the benchmark's source directory.
func writeGoldens() error {
	path := filepath.Join("golden", "reports.json")
	if _, err := os.Stat("bench"); err == nil {
		path = filepath.Join("bench", path) // run from the repository root
	}
	all := map[string]map[string]goldenEntry{}
	for _, w := range simWorkloads {
		for _, seed := range goldenSeeds {
			for _, quick := range []bool{false, true} {
				jobs, err := simJobs(w, seed, quick)
				if err != nil {
					return err
				}
				entries := map[string]goldenEntry{}
				for _, j := range jobs {
					d, err := publicDigest(j)
					if err != nil {
						return fmt.Errorf("%s %s: %w", w, j.label, err)
					}
					entries[j.label] = goldenEntry{Spec: j.hash, Report: d}
				}
				all[goldenKey(w, seed, quick)] = entries
				fmt.Printf("golden %s: %d specs\n", goldenKey(w, seed, quick), len(entries))
			}
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// publicDigest runs a job through spec.RunSim or spec.ReplayTrace and
// returns the sha256 of its report.
func publicDigest(j simJob) (string, error) {
	var run *spec.SimRun
	var err error
	if j.spec.Kind == spec.KindTrace {
		var td *ingest.Data
		if td, err = ingest.ReadAll(bytes.NewReader(j.trace)); err == nil {
			run, err = j.spec.ReplayTrace(td, spec.SimHooks{})
		}
	} else {
		run, err = j.spec.RunSim(spec.SimHooks{})
	}
	if err != nil {
		return "", err
	}
	var text bytes.Buffer
	run.Report(&text)
	return sha(text.Bytes()), nil
}

// sha is the hex sha256 of b.
func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
