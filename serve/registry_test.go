package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/serve"
)

func testRegistry(t *testing.T, cfg serve.RegistryConfig) *serve.Registry {
	t.Helper()
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = -1 // no janitor; tests sweep explicitly
	}
	reg := serve.NewRegistry(cfg)
	t.Cleanup(reg.Close)
	return reg
}

// smallDatasetRequest returns a table upload of a small synthetic
// study, cheap enough for many registry tests.
func smallDatasetRequest(t *testing.T, seed uint64) serve.DatasetRequest {
	t.Helper()
	d, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 14, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{3, 9}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	return serve.DatasetRequest{Format: serve.FormatTable, Content: buf.String()}
}

// waitJobDone polls until the job leaves the running state.
func waitJobDone(t *testing.T, reg *serve.Registry, id string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := reg.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if ji.State != serve.JobRunning {
			return ji
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegistryDatasetDedup: identical uploads register once under the
// fingerprint-derived id.
func TestRegistryDatasetDedup(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	req := smallDatasetRequest(t, 9)
	a, err := reg.AddDataset(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.AddDataset(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("same content produced ids %s and %s", a.ID, b.ID)
	}
	other, err := reg.AddDataset(smallDatasetRequest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == a.ID {
		t.Fatal("different content shares an id")
	}
}

// TestRegistryPEDUpload: the LINKAGE path parses and describes.
func TestRegistryPEDUpload(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ped := "f1 1 0 0 0 2  1 1 1 2 2 2\n" +
		"f2 1 0 0 0 1  1 2 1 1 0 0\n"
	info, err := reg.AddDataset(serve.DatasetRequest{
		Format: serve.FormatPED, Content: ped, NumSNPs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumSNPs != 3 || info.NumIndividuals != 2 || info.Affected != 1 || info.Unaffected != 1 {
		t.Fatalf("ped dims %+v", info)
	}
	if _, err := reg.AddDataset(serve.DatasetRequest{Format: serve.FormatPED, Content: ped}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("ped without num_snps err = %v, want ErrBadConfig", err)
	}
}

// TestRegistrySharedBackendAcrossSessions: two sessions with the same
// dataset+backend+statistic+workers share one engine — work done
// through one session is visible (and reusable) in the other's stats.
func TestRegistrySharedBackendAcrossSessions(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.StartJob(s1.ID, serve.JobRequest{Config: testGAConfig(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, job.ID)
	st2, err := reg.Stats(s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Engine == nil || st2.Engine.Computed == 0 {
		t.Fatalf("session 2 (no jobs) stats %+v: the shared backend's work should be visible", st2.Engine)
	}
	// A different worker count is a different backend: fresh counters.
	s3, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := reg.Stats(s3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Engine == nil || st3.Engine.Computed != 0 {
		t.Fatalf("distinct backend key shares counters: %+v", st3.Engine)
	}
}

// TestRegistrySweepEviction: idle sessions are evicted after
// SessionTTL (taking their job records), the dataset after DatasetTTL
// more; a session with a running job survives any idle time.
func TestRegistrySweepEviction(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{
		SessionTTL: time.Minute,
		DatasetTTL: 2 * time.Minute,
	})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, job.ID)

	now := time.Now()
	if es, ed := reg.Sweep(now); es != 0 || ed != 0 {
		t.Fatalf("premature eviction: %d sessions, %d datasets", es, ed)
	}
	// Past SessionTTL: session (and its job record) go; dataset stays.
	if es, ed := reg.Sweep(now.Add(time.Minute + time.Second)); es != 1 || ed != 0 {
		t.Fatalf("Sweep evicted %d sessions, %d datasets; want 1, 0", es, ed)
	}
	if _, err := reg.Session(sess.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted session err = %v, want ErrNotFound", err)
	}
	if _, err := reg.Job(job.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted session's job err = %v, want ErrNotFound", err)
	}
	if _, err := reg.Dataset(ds.ID); err != nil {
		t.Fatalf("dataset evicted with its first sweep: %v", err)
	}
	// DatasetTTL counts from the last session's end.
	if es, ed := reg.Sweep(now.Add(time.Minute + 3*time.Minute)); es != 0 || ed != 1 {
		t.Fatalf("Sweep evicted %d sessions, %d datasets; want 0, 1", es, ed)
	}
	if _, err := reg.Dataset(ds.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted dataset err = %v, want ErrNotFound", err)
	}

	// A running job pins its session (and dataset) forever.
	ds2, err := reg.AddDataset(smallDatasetRequest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds2.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job2, err := reg.StartJob(sess2.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	if es, _ := reg.Sweep(now.Add(24 * time.Hour)); es != 0 {
		t.Fatal("a session with a running job was evicted")
	}
	if _, err := reg.StopJob(job2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDrain: BeginDrain cancels running jobs (partial results
// stay fetchable) and rejects new work while reads keep working.
func TestRegistryDrain(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := reg.StartJob(sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	// Let it complete a couple of generations before draining.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := reg.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Report.Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	reg.BeginDrain()
	ji := waitJobDone(t, reg, job.ID)
	if ji.State != serve.JobCanceled || ji.Result == nil || ji.Result.Generations < 2 {
		t.Fatalf("drained job %+v, want canceled with a partial result", ji)
	}
	if _, err := reg.AddDataset(smallDatasetRequest(t, 10)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("AddDataset during drain err = %v, want ErrDraining", err)
	}
	if _, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("CreateSession during drain err = %v, want ErrDraining", err)
	}
	if _, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(5)}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("StartJob during drain err = %v, want ErrDraining", err)
	}
	// Reads survive the drain: the partial result stays fetchable.
	if _, err := reg.Job(job.ID); err != nil {
		t.Fatalf("Job read during drain: %v", err)
	}
	if _, err := reg.Stats(sess.ID); err != nil {
		t.Fatalf("Stats read during drain: %v", err)
	}
}

// TestRegistryListSessionJobsPaging: a session listing walks the
// session's own job ids. Over three pages of one session's jobs —
// records restored from a previous life plus finished live
// jobs of this one, beside another session's jobs — every page's ids,
// infos and cursor must equal a brute-force listing that filters all
// jobs by session, sorts them by id and slices pages of ten.
func TestRegistryListSessionJobsPaging(t *testing.T) {
	dir := t.TempDir()
	cfg := func(seed uint64) serve.JobRequest {
		c := testGAConfig(seed)
		c.MaxGenerations = 2
		return serve.JobRequest{Config: c}
	}
	runJobs := func(reg *serve.Registry, sessID string, n int, seed uint64) {
		for i := 0; i < n; i++ {
			ji, err := reg.StartJob(sessID, cfg(seed+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			waitJobDone(t, reg, ji.ID)
		}
	}

	// Life 1 leaves finished job records in the store.
	reg1 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg1.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	ds, err := reg1.AddDataset(smallDatasetRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg1.CreateSession(serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg1.CreateSession(serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	runJobs(reg1, sess.ID, 8, 1)
	runJobs(reg1, other.ID, 2, 100)
	reg1.Close()

	// Life 2 restores those records and runs more jobs,
	// interleaving the two sessions' ids.
	reg := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	runJobs(reg, sess.ID, 9, 20)
	runJobs(reg, other.ID, 3, 200)
	runJobs(reg, sess.ID, 8, 40)

	all, err := reg.ListJobs("", "", 500)
	if err != nil {
		t.Fatal(err)
	}
	var want []serve.JobInfo
	for _, ji := range all.Jobs {
		if ji.SessionID == sess.ID {
			want = append(want, ji)
		}
	}
	sort.Slice(want, func(i, j int) bool { return jobSeq(t, want[i].ID) < jobSeq(t, want[j].ID) })
	if len(want) != 25 {
		t.Fatalf("session has %d jobs, want 25", len(want))
	}

	const limit = 10
	cursor, pages := "", 0
	for start := 0; start < len(want); start += limit {
		end := min(start+limit, len(want))
		wantNext := ""
		if end < len(want) {
			wantNext = want[end-1].ID
		}
		got, err := reg.ListJobs(sess.ID, cursor, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Jobs, want[start:end]) {
			t.Fatalf("page %d (cursor %q): got %v, want %v", pages, cursor, jobIDs(got.Jobs), jobIDs(want[start:end]))
		}
		if got.NextCursor != wantNext {
			t.Fatalf("page %d: next cursor %q, want %q", pages, got.NextCursor, wantNext)
		}
		cursor = got.NextCursor
		pages++
	}
	if pages != 3 {
		t.Fatalf("listed %d pages, want 3", pages)
	}
	if _, err := reg.ListJobs("s-999", "", limit); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("unknown session: err = %v, want ErrNotFound", err)
	}
}

// TestRegistryConcurrentStartsPaging: two jobs started at once
// on one session can register out of id order — the first start is
// held in its record write until the second has registered. Paging the
// session listing, and the registry-wide one, one job at a time must
// still list each id once, in id order.
func TestRegistryConcurrentStartsPaging(t *testing.T) {
	st := &holdFirstPut{Store: serve.NewMemStore(), id: "j-1", reached: make(chan struct{}), release: make(chan struct{})}
	reg := testRegistry(t, serve.RegistryConfig{})
	if err := reg.UseStore(st); err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset(smallDatasetRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	req := func(seed uint64) serve.JobRequest {
		c := testGAConfig(seed)
		c.MaxGenerations = 2
		return serve.JobRequest{Config: c}
	}
	first := make(chan error, 1)
	go func() {
		_, err := reg.StartJob(sess.ID, req(1))
		first <- err
	}()
	<-st.reached // j-1 is taken and its record write held
	second, err := reg.StartJob(sess.ID, req(2))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "j-2" {
		t.Fatalf("second job id %s, want j-2", second.ID)
	}
	close(st.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	for _, sessionID := range []string{sess.ID, ""} {
		var got []string
		cursor := ""
		for range 3 {
			list, err := reg.ListJobs(sessionID, cursor, 1)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, jobIDs(list.Jobs)...)
			if cursor = list.NextCursor; cursor == "" {
				break
			}
		}
		if want := []string{"j-1", "j-2"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("listing %q one job a page: got %v, want %v", sessionID, got, want)
		}
	}
	waitJobDone(t, reg, "j-1")
	waitJobDone(t, reg, "j-2")
}

// holdFirstPut is a Store whose first write of job id's record waits
// until release closes, after closing reached.
type holdFirstPut struct {
	serve.Store
	id               string
	reached, release chan struct{}
	once             sync.Once
}

func (s *holdFirstPut) Put(kind serve.Kind, rec serve.Record) (serve.Record, error) {
	if kind == serve.KindJob && rec.ID == s.id {
		s.once.Do(func() {
			close(s.reached)
			<-s.release
		})
	}
	return s.Store.Put(kind, rec)
}

// jobSeq parses the sequence number of a "j-N" job id.
func jobSeq(t *testing.T, id string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	if err != nil {
		t.Fatalf("job id %q: %v", id, err)
	}
	return n
}

func jobIDs(jobs []serve.JobInfo) []string {
	ids := make([]string, len(jobs))
	for i, ji := range jobs {
		ids[i] = ji.ID
	}
	return ids
}

// TestRegistryFinishedJobIsFrozenAcrossRestart: a finished job's status is fixed
// when its run ends. After a GA job and a race have finished and a
// third job has moved the shared backend's counters, GET, DELETE, a
// session page, a registry-wide page and a late subscriber's done
// frame all return the document read when each job finished, and so
// does a registry restored from the same store.
func TestRegistryFinishedJobIsFrozenAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	client, reg := newTestServer(t, serve.RegistryConfig{}, serve.WithStore(mustFSStore(t, dir)))
	ctx := context.Background()
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]serve.JobInfo{}
	for _, req := range []serve.JobRequest{
		{Config: testGAConfig(1)},
		{Config: testGAConfig(2), Race: &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "stpga"}}, SubsetSize: 2}},
	} {
		ji, err := reg.StartJob(sess.ID, req)
		if err != nil {
			t.Fatal(err)
		}
		if want[ji.ID] = waitJobDone(t, reg, ji.ID); want[ji.ID].State != serve.JobDone {
			t.Fatalf("job %s ended %s, want done", ji.ID, want[ji.ID].State)
		}
	}
	more, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, more.ID)

	sessPage, err := reg.ListJobs(sess.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	allPage, err := reg.ListJobs("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		reads := map[string]serve.JobInfo{
			"session page":       findJob(t, sessPage.Jobs, id),
			"registry-wide page": findJob(t, allPage.Jobs, id),
		}
		if reads["GET"], err = reg.Job(id); err != nil {
			t.Fatal(err)
		}
		if reads["DELETE"], err = reg.StopJob(id); err != nil {
			t.Fatal(err)
		}
		done, err := client.StreamEvents(ctx, id, nil)
		if err != nil || done == nil {
			t.Fatalf("late subscriber to %s: done %v, err %v", id, done, err)
		}
		reads["done frame"] = *done
		for what, got := range reads {
			sameJobInfo(t, id+" "+what, got, w)
		}
	}

	reg.Close()
	restored := testRegistry(t, serve.RegistryConfig{})
	if err := restored.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		got, err := restored.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		sameJobInfo(t, id+" after restart", got, w)
	}
}

// findJob returns the listed job with the given id.
func findJob(t *testing.T, jobs []serve.JobInfo, id string) serve.JobInfo {
	t.Helper()
	for _, ji := range jobs {
		if ji.ID == id {
			return ji
		}
	}
	t.Fatalf("job %s not listed in %v", id, jobIDs(jobs))
	return serve.JobInfo{}
}

// sameJobInfo fails the test unless got and want are the same
// document, showing both as JSON when they differ.
func sameJobInfo(t *testing.T, what string, got, want serve.JobInfo) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	t.Errorf("%s differs from the job's final status:\ngot  %s\nwant %s", what, g, w)
}
