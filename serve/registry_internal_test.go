package serve

import (
	"testing"

	"repro"
)

// TestFinishedEntryReleasesRunHandle: once a job has finished, its
// registry entry holds only its final status, not the run handle and
// what the run kept alive.
func TestFinishedEntryReleasesRunHandle(t *testing.T) {
	reg := NewRegistry(RegistryConfig{SweepInterval: -1})
	defer reg.Close()
	ds, err := reg.AddDataset(DatasetRequest{Format: FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ji, err := reg.StartJob(sess.ID, JobRequest{Config: repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24, PairsPerGeneration: 8,
		StagnationLimit: 12, ImmigrantStagnation: 5, MaxGenerations: 4, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	je := reg.jobs[ji.ID]
	reg.mu.Unlock()
	<-je.ended
	je.mu.Lock()
	run, final := je.run, je.final
	je.mu.Unlock()
	if run != nil {
		t.Fatal("finished entry still holds its run handle")
	}
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("finished entry's final status %+v, want done with a result", final)
	}
}
