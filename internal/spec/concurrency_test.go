// concurrency_test.go checks that simulations sharing a process do not
// interfere: exp -jobs and the dlserve runner execute several specs at
// once, so the model must hold no mutable state outside its System. Each
// report produced under concurrency must match the digest that
// TestReportDigests pins for a run on its own. Run under -race with
// GOMAXPROCS >= 4 (the ci.sh leg does) so the runs genuinely interleave.
package spec

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedReportByteIdentity shards the digest spec table across
// parallel subtests, so different workload classes run at the same
// time, and checks every report and JSON body against its digest.
func TestShardedReportByteIdentity(t *testing.T) {
	want := readDigests(t)
	for i, sp := range digestSpecs() {
		t.Run(specName(sp), func(t *testing.T) {
			t.Parallel()
			text, js := specDigests(t, sp)
			if k := fmt.Sprintf("spec%d.text", i); text != want[k] {
				t.Errorf("%s: report sha256 %s, committed %q", k, text, want[k])
			}
			if k := fmt.Sprintf("spec%d.json", i); js != want[k] {
				t.Errorf("%s: JSON sha256 %s, committed %q", k, js, want[k])
			}
		})
	}
}

// TestParallelModelByteIdentity runs each digest spec in several
// goroutines at once, so identical models share every package-level
// cache and table at the same time, and checks every copy's report and
// JSON body against the spec's digest.
func TestParallelModelByteIdentity(t *testing.T) {
	const copies = 4
	want := readDigests(t)
	for i, sp := range digestSpecs() {
		t.Run(specName(sp), func(t *testing.T) {
			var texts, jsons [copies]string
			var errs [copies]error
			var wg sync.WaitGroup
			for c := range copies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					texts[c], jsons[c], errs[c] = renderDigests(sp)
				}()
			}
			wg.Wait()
			for c := range copies {
				if errs[c] != nil {
					t.Fatalf("copy %d: %v", c, errs[c])
				}
				if k := fmt.Sprintf("spec%d.text", i); texts[c] != want[k] {
					t.Errorf("copy %d: %s: report sha256 %s, committed %q", c, k, texts[c], want[k])
				}
				if k := fmt.Sprintf("spec%d.json", i); jsons[c] != want[k] {
					t.Errorf("copy %d: %s: JSON sha256 %s, committed %q", c, k, jsons[c], want[k])
				}
			}
		})
	}
}
