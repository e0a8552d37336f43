package serve

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServerResumeAfterShutdown is the subsystem's acceptance proof:
// kill the daemon mid-search with jobs queued behind the running one,
// restart over the same data directory, and every job completes with
// results bit-identical to an uninterrupted run.
func TestServerResumeAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	aln := testPhylipText(t, 10, 300, 17)
	specs := []JobSpec{
		{Tenant: "a", Alignment: aln, Options: JobOptions{Seed: 3, Jumbles: 3}},
		{Tenant: "b", Alignment: aln, Options: JobOptions{Seed: 101, Jumbles: 2}},
	}

	// First life: one slot, one worker, so the second job is still
	// queued when we pull the plug.
	s1, err := NewServer(Options{
		DataDir:   dir,
		MaxActive: 1,
		Fleet:     FleetOptions{Workers: 1},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sp := range specs {
		rec, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	// Wait for the first job to be mid-search: running, with at least
	// one checkpoint in its manifest.
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first job never checkpointed")
		}
		rec, err := s1.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			t.Fatalf("first job finished (%s) before the shutdown; grow the test dataset", rec.State)
		}
		if _, statErr := os.Stat(s1.store.ManifestPath(ids[0])); statErr == nil && rec.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Graceful shutdown: the running search stops at its round
	// boundary, flushes its manifest, and both jobs persist as queued.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec, err := store.LoadRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != StateQueued {
			t.Fatalf("after shutdown, job %s state %s, want queued", id, rec.State)
		}
	}

	// Second life: the janitor re-queues both; the interrupted one
	// resumes from its manifest instead of starting over.
	reg := obs.NewRegistry()
	s2, err := NewServer(Options{
		DataDir:   dir,
		MaxActive: 2,
		Fleet:     FleetOptions{Workers: 2},
		Registry:  reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if got := s2.met.resumed.Value(); got != 2 {
		t.Errorf("resumed counter = %v, want 2", got)
	}
	for _, id := range ids {
		waitJob(t, s2, id, StateDone)
	}

	// Every jumble of every job matches an uninterrupted serial run bit
	// for bit — the checkpoint/resume path changed nothing.
	for i, sp := range specs {
		want := serialReference(t, sp)
		res, _, err := s2.Result(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jumbles) != len(want) {
			t.Fatalf("job %d: %d jumbles, want %d", i, len(res.Jumbles), len(want))
		}
		for j, w := range want {
			got := res.Jumbles[j]
			if got.Newick != w.BestNewick || got.LnL != w.LnL || got.Seed != w.Seed {
				t.Errorf("job %d jumble %d diverged after resume:\n got %q lnL %v seed %d\nwant %q lnL %v seed %d",
					i, j, got.Newick, got.LnL, got.Seed, w.BestNewick, w.LnL, w.Seed)
			}
		}
	}
}

// TestResumeJobPersistedWithPrecision: a queued job whose spec was
// written by a build that still had the "precision" option resumes
// after an upgrade. Specs on disk decode leniently, so the old field is
// ignored and the job runs to the same result as a fresh submission.
func TestResumeJobPersistedWithPrecision(t *testing.T) {
	dir := t.TempDir()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 8, 150, 11), Options: JobOptions{Seed: 5}}
	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{
		ID: newJobID(), Tenant: "a", State: StateQueued, Jumbles: 1,
		ResultKey: prep.ResultKey, PodKey: prep.PodKey, Submitted: time.Now(),
	}
	if err := store.Create(&rec, &prep.Spec); err != nil {
		t.Fatal(err)
	}
	// Add the option the way the older build persisted it.
	path := store.specPath(rec.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["options"].(map[string]any)["precision"] = "float64"
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	waitJob(t, s, rec.ID, StateDone)
	res, _, err := s.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, spec)
	if len(res.Jumbles) != 1 || res.Jumbles[0].Newick != want[0].BestNewick || res.Jumbles[0].LnL != want[0].LnL {
		t.Errorf("resumed job diverged from a serial run: %+v", res.Jumbles)
	}
}
