package repro_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro"
)

// The JSON encodings of the public result/trace/report types are a
// wire contract: the serving layer returns them verbatim, so their
// field names must stay stable and every value must round-trip
// bit-identically.

func roundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	return out
}

func TestGAResultJSONRoundTrip(t *testing.T) {
	in := &repro.GAResult{
		BestBySize: map[int]*repro.Haplotype{
			2: {Sites: []int{7, 11}, Fitness: 49.516680698052, Evaluated: true},
			3: {Sites: []int{7, 11, 31}, Fitness: 73.34755133641872, Evaluated: true},
		},
		EvalsAtBest:      map[int]int64{2: 812, 3: 4031},
		TotalEvaluations: 8665,
		Generations:      44,
		Converged:        true,
		MutationRates:    []float64{0.42, 0.23, 0.25},
		CrossoverRates:   []float64{0.61, 0.19},
		Immigrants:       12,
		Islands: []repro.IslandStat{
			{Island: 1, Sizes: []int{2}, Generations: 40, Evaluations: 4100,
				Converged: true, Immigrants: 7, Sent: 8, Received: 6, Dropped: 2,
				MutationRates: []float64{0.4, 0.2, 0.3}, CrossoverRates: []float64{0.5, 0.3}},
			{Island: 2, Sizes: []int{3}, Generations: 44, Evaluations: 4565,
				Converged: true, Immigrants: 5, Sent: 9, Received: 8, Dropped: 0,
				MutationRates: []float64{0.5, 0.2, 0.2}, CrossoverRates: []float64{0.6, 0.2}},
		},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(in, got) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
}

func TestTraceEntryJSONRoundTrip(t *testing.T) {
	in := repro.TraceEntry{
		Generation:     17,
		Evaluations:    3996,
		BestBySize:     map[int]float64{2: 49.5, 3: 73.3, 4: 120.46764978612833},
		MutationRates:  []float64{0.42, 0.23, 0.25},
		CrossoverRates: []float64{0.61, 0.19},
		Stagnation:     6,
		Immigrants:     3,
		Island:         2,
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(in, got) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
}

func TestJobReportJSONRoundTrip(t *testing.T) {
	in := repro.JobReport{
		Running:     true,
		Generation:  9,
		Evaluations: 1771,
		BestBySize:  map[int]float64{2: 40.25},
		Stagnation:  2,
		Elapsed:     1534 * time.Millisecond,
		Engine: &repro.EngineReport{
			Requests:     7924,
			Computed:     3828,
			CacheHits:    4096,
			Coalesced:    5,
			CacheEntries: 3828,
			CacheBytes:   311296,
			Workers:      2,
			PerWorker:    []int64{1914, 1914},
			Uptime:       2 * time.Second,
		},
		Islands: []repro.TraceEntry{
			{Generation: 9, Evaluations: 1000, BestBySize: map[int]float64{2: 40.25}, Island: 1},
			{Generation: 7, Evaluations: 771, BestBySize: map[int]float64{3: 61.5}, Island: 2},
		},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(in, got) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
}

func TestEngineReportJSONRoundTrip(t *testing.T) {
	in := repro.EngineReport{
		Requests: 10, Computed: 4, CacheHits: 5, Coalesced: 1,
		CacheEntries: 4, CacheBytes: 656, Workers: 1, PerWorker: []int64{4},
		Uptime: 1500 * time.Nanosecond,
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(in, got) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
}

func TestGAConfigJSONRoundTrip(t *testing.T) {
	in := repro.GAConfig{
		MinSize: 2, MaxSize: 6, PopulationSize: 150,
		PairsPerGeneration: 75, StagnationLimit: 100,
		ImmigrantStagnation: 20, MaxGenerations: 100000,
		GlobalMutationRate: 0.9, GlobalCrossoverRate: 0.8,
		MinOperatorRate: 0.05, SNPMutationProbes: 4,
		TournamentSize: 2, Seed: 42,
		DisableAdaptiveRates: true,
	}
	got := roundTrip(t, in)
	// The function-valued fields never cross the wire.
	if got.Constraint != nil || got.OnGeneration != nil {
		t.Error("function fields leaked through JSON")
	}
	in.Constraint, in.OnGeneration = nil, nil
	if !reflect.DeepEqual(in, got) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
}

// TestWireFieldNamesStable pins the exact JSON key sets: renaming a
// field is a wire-format break and must fail here first.
func TestWireFieldNamesStable(t *testing.T) {
	keysOf := func(v any) map[string]bool {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		keys := make(map[string]bool, len(m))
		for k := range m {
			keys[k] = true
		}
		return keys
	}
	cases := []struct {
		name string
		v    any
		want []string
	}{
		{"GAResult", repro.GAResult{}, []string{
			"best_by_size", "evals_at_best", "total_evaluations", "generations",
			"converged", "mutation_rates", "crossover_rates", "immigrants"}},
		{"TraceEntry", repro.TraceEntry{}, []string{
			"generation", "evaluations", "best_by_size", "mutation_rates",
			"crossover_rates", "stagnation", "immigrants"}},
		{"JobReport", repro.JobReport{}, []string{
			"running", "generation", "evaluations", "best_by_size",
			"stagnation", "elapsed_ns"}},
		{"EngineReport", repro.EngineReport{}, []string{
			"requests", "computed", "cache_hits", "coalesced",
			"cache_entries", "cache_bytes", "workers", "per_worker", "uptime_ns"}},
		{"Haplotype", repro.Haplotype{}, []string{"sites", "fitness", "evaluated"}},
		// TraceEntry.Island, GAResult.Islands and JobReport.Islands are
		// omitempty: absent from synchronous payloads (checked above),
		// present for island-model runs (pinned here).
		{"IslandStat", repro.IslandStat{}, []string{
			"island", "sizes", "generations", "evaluations", "converged",
			"immigrants", "sent", "received", "dropped",
			"mutation_rates", "crossover_rates"}},
	}
	for _, c := range cases {
		got := keysOf(c.v)
		for _, k := range c.want {
			if !got[k] {
				t.Errorf("%s: missing wire field %q", c.name, k)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("%s: unexpected wire field %q", c.name, k)
		}
	}
}
