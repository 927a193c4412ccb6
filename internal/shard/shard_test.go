package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/genotype"
	"repro/internal/popgen"
)

// testDataset generates a small dataset with missing calls, so the
// complete-case path is exercised.
func testDataset(t *testing.T, numSNPs int) *genotype.Dataset {
	t.Helper()
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: numSNPs, NumAffected: 24, NumUnaffected: 24, NumUnknown: 4,
		MissingRate:       0.03,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{3, numSNPs/2 + 1}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlan(t *testing.T) {
	d := testDataset(t, 51)
	plan, err := PlanFor(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 7 {
		t.Fatalf("NumShards = %d, want 7", plan.NumShards())
	}
	if got := plan.Metas[6]; got.Start != 48 || got.End != 51 {
		t.Fatalf("last shard = [%d,%d), want [48,51)", got.Start, got.End)
	}
	seen := make(map[uint64]bool)
	covered := 0
	for i, m := range plan.Metas {
		if m.Index != i {
			t.Fatalf("meta %d has index %d", i, m.Index)
		}
		if seen[m.Fingerprint] {
			t.Fatalf("shard %d repeats a fingerprint", i)
		}
		seen[m.Fingerprint] = true
		covered += m.Width()
		for s := m.Start; s < m.End; s++ {
			if plan.ShardOf(s) != i {
				t.Fatalf("ShardOf(%d) = %d, want %d", s, plan.ShardOf(s), i)
			}
		}
	}
	if covered != 51 {
		t.Fatalf("shards cover %d columns, want 51", covered)
	}
	// A different parent yields different shard fingerprints for the
	// same ranges.
	plan2, err := NewPlan(plan.Parent+1, 51, plan.Rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Metas[0].Fingerprint == plan.Metas[0].Fingerprint {
		t.Fatal("shard fingerprint does not depend on the parent fingerprint")
	}
	if DefaultShardSize != 4096 {
		t.Fatalf("DefaultShardSize = %d, want 4096", DefaultShardSize)
	}
	pd, err := PlanFor(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pd.ShardSize != DefaultShardSize || pd.NumShards() != 1 {
		t.Fatalf("default plan: size %d shards %d", pd.ShardSize, pd.NumShards())
	}
}

// columnsEqual checks that the source serves every column of the
// dataset, genotype for genotype.
func columnsEqual(t *testing.T, name string, d *genotype.Dataset, src Source) {
	t.Helper()
	plan := src.Plan()
	for i := 0; i < plan.NumShards(); i++ {
		sh, err := src.Shard(i)
		if err != nil {
			t.Fatalf("%s: shard %d: %v", name, i, err)
		}
		if sh.Meta != plan.Metas[i] {
			t.Fatalf("%s: shard %d meta mismatch", name, i)
		}
		for s := sh.Meta.Start; s < sh.Meta.End; s++ {
			col := sh.PackedColumn(s)
			if col.Len() != d.NumIndividuals() {
				t.Fatalf("%s: shard %d column %d has %d rows", name, i, s, col.Len())
			}
			for r := 0; r < col.Len(); r++ {
				if g := col.Get(r); g != d.Individuals[r].Genotypes[s] {
					t.Fatalf("%s: shard %d column %d row %d: %v != %v",
						name, i, s, r, g, d.Individuals[r].Genotypes[s])
				}
			}
		}
	}
}

func TestSourcesServeDatasetColumns(t *testing.T) {
	d := testDataset(t, 51)
	mem, err := NewMem(d, 8, 2) // resident set far smaller than the shard count
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	spill, err := NewSpill(d, t.TempDir(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	columnsEqual(t, "mem", d, mem)
	columnsEqual(t, "spill", d, spill)
	// Revisit after eviction: the data must be identical, not just
	// present.
	columnsEqual(t, "mem-revisit", d, mem)
	columnsEqual(t, "spill-revisit", d, spill)
	if got := mem.(*hotSource).resident(); got > 2 {
		t.Fatalf("mem source holds %d shards, cap 2", got)
	}
	if got := spill.(*spillSource).resident(); got > 2 {
		t.Fatalf("spill source holds %d shards, cap 2", got)
	}
}

func TestSpillFilesAreWriteOnceAndReusable(t *testing.T) {
	d := testDataset(t, 51)
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Plan().NumShards(); i++ {
		if _, err := src.Shard(i); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil || len(files) != 7 {
		t.Fatalf("spilled %d files (err %v), want 7", len(files), err)
	}
	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}

	// A second source over the same directory reuses the files
	// (write-once: no rewrite of a valid file).
	src2, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	columnsEqual(t, "reused", d, src2)
	after, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("valid spill file was rewritten")
	}

	// A corrupted file is detected and rewritten from the table.
	if err := os.WriteFile(files[2], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	src3, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src3.Close()
	columnsEqual(t, "healed", d, src3)

	// A different dataset spilled into the same directory replaces the
	// stale files rather than serving the old dataset's genotypes.
	d2 := testDataset(t, 51)
	g := &d2.Individuals[0].Genotypes[0]
	*g = (*g + 1) % 3 // different valid content, same shape (Missing wraps to 0)
	src4, err := NewSpill(d2, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src4.Close()
	columnsEqual(t, "replaced", d2, src4)
}

// spillBytes is the on-disk image of shard m, built straight from the
// dataset rows: the 44-byte header ("LDSHRD2\n", then parent
// fingerprint, start, end and row count as little-endian uint64s, then
// the IEEE CRC-32 of the payload as a little-endian uint32) followed
// by the payload: column after column, ceil(rows/32) 64-bit words
// each, written little-endian, with row r's 2-bit code (00, 01, 10 =
// 0, 1, 2 copies of allele 2, 11 = missing) at bits 2(r mod 32) of
// word r/32.
func spillBytes(d *genotype.Dataset, plan Plan, m Meta) []byte {
	b := []byte("LDSHRD2\n")
	for _, v := range []uint64{plan.Parent, uint64(m.Start), uint64(m.End), uint64(plan.Rows)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	var payload []byte
	nw := (plan.Rows + 31) / 32
	for s := m.Start; s < m.End; s++ {
		words := make([]uint64, nw)
		for r, ind := range d.Individuals {
			code := uint64(ind.Genotypes[s])
			if ind.Genotypes[s] == genotype.Missing {
				code = 3
			}
			words[r/32] |= code << (2 * uint(r%32))
		}
		for _, w := range words {
			payload = binary.LittleEndian.AppendUint64(payload, w)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestSpillFileFormat pins the spill layout on disk. The round-trip
// tests above would not notice the writer and reader drifting
// together; this one checks the written bytes against the format, and
// that a directory holding files in that format (as written by any
// earlier build) is reused after a restart rather than rebuilt.
func TestSpillFileFormat(t *testing.T) {
	d := testDataset(t, 20) // shards 0-7, 8-15 and a narrow 16-19
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := src.Plan()
	for i, m := range plan.Metas {
		if _, err := src.Shard(i); err != nil {
			t.Fatal(err)
		}
		want := spillBytes(d, plan, m)
		if !bytes.Equal(want[:spillIdentSize], spillIdent(plan, m)) {
			t.Fatalf("shard %d: spillIdent differs from the pinned layout", i)
		}
		got, err := os.ReadFile(spillPath(dir, m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d: spill file (%d bytes) differs from the pinned layout (%d bytes)", i, len(got), len(want))
		}
	}
	src.Close()

	// Files laid down in the pinned format before the source exists
	// are served as they are: same genotypes, never rewritten.
	dir2 := t.TempDir()
	old := time.Date(2004, 4, 26, 0, 0, 0, 0, time.UTC)
	for _, m := range plan.Metas {
		path := spillPath(dir2, m)
		if err := os.WriteFile(path, spillBytes(d, plan, m), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	src2, err := NewSpill(d, dir2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	columnsEqual(t, "pre-existing", d, src2)
	for i, m := range plan.Metas {
		fi, err := os.Stat(spillPath(dir2, m))
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(old) {
			t.Fatalf("shard %d: pre-existing spill file was rewritten", i)
		}
	}
}

// oldSpillBytes is shard m's image in the LDSHRD1 format of earlier
// builds: the 40-byte header without a CRC, then one byte per genotype,
// column-major.
func oldSpillBytes(d *genotype.Dataset, plan Plan, m Meta) []byte {
	b := []byte("LDSHRD1\n")
	for _, v := range []uint64{plan.Parent, uint64(m.Start), uint64(m.End), uint64(plan.Rows)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for s := m.Start; s < m.End; s++ {
		for _, ind := range d.Individuals {
			b = append(b, byte(ind.Genotypes[s]))
		}
	}
	return b
}

// TestSpillBadFilesAreRewritten: a file in the LDSHRD1 format, one
// with a single payload bit flipped (which still decodes to valid
// genotypes) and a truncated one are each never served: the source
// rewrites them from the table and serves the table's columns.
func TestSpillBadFilesAreRewritten(t *testing.T) {
	d := testDataset(t, 20)
	plan, err := PlanFor(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(m Meta) []byte{
		"LDSHRD1": func(m Meta) []byte { return oldSpillBytes(d, plan, m) },
		"bit-flip": func(m Meta) []byte {
			b := spillBytes(d, plan, m)
			b[spillHeaderSize+3] ^= 0x04 // one genotype code changes
			return b
		},
		"truncated": func(m Meta) []byte {
			b := spillBytes(d, plan, m)
			return b[:len(b)-8]
		},
	} {
		dir := t.TempDir()
		for _, m := range plan.Metas {
			if err := os.WriteFile(spillPath(dir, m), bad(m), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		src, err := NewSpill(d, dir, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		columnsEqual(t, name, d, src)
		src.Close()
		for i, m := range plan.Metas {
			got, err := os.ReadFile(spillPath(dir, m))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, spillBytes(d, plan, m)) {
				t.Fatalf("%s: shard %d was not rewritten in the current format", name, i)
			}
		}
	}
}

// TestSpillRemovesLegacyFiles: opening a spill directory removes the
// files of the older naming, which no build reads (manifest.json and
// shard-NNNNNN.bin), and leaves current shard-<start>-<end>.bin files,
// temp files of either naming (another source may be writing one) and
// unrelated files alone.
func TestSpillRemovesLegacyFiles(t *testing.T) {
	d := testDataset(t, 20)
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Shard(0); err != nil {
		t.Fatal(err)
	}
	current := spillPath(dir, src.Plan().Metas[0])
	src.Close()
	image, err := os.ReadFile(current)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{
		"manifest.json":            false,
		"shard-000000.bin":         false,
		"shard-000001.bin":         false,
		"shard-0-8.bin.tmp123":     true,
		"shard-000002.bin.tmp4242": true,
		"notes.txt":                true,
	}
	for name := range kept {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src2, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	for name, keep := range kept {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != keep {
			t.Errorf("%s: exists %v after opening, want %v (stat error %v)", name, exists, keep, err)
		}
	}
	if got, err := os.ReadFile(current); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("current spill file changed on opening (error %v)", err)
	}
	columnsEqual(t, "after cleanup", d, src2)
}

// TestSpillRemovesStaleTemps: opening a spill directory removes the
// temp files a crashed writer left, told by their age, and keeps a
// fresh one, which a live writer may be filling, as well as old files
// and directories that are not spill temp files.
func TestSpillRemovesStaleTemps(t *testing.T) {
	d := testDataset(t, 20)
	dir := t.TempDir()
	old := time.Now().Add(-staleTemp - time.Minute)
	files := []struct {
		name      string
		old, keep bool
	}{
		{"shard-0-8.bin.tmp123", true, false},
		{"shard-000002.bin.tmp4242", true, false},
		{"shard-8-16.bin.tmp99", false, true},
		{"notes.tmp", true, true},
		{"shard-16-20.bin.tmp7/", true, true},
	}
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		var err error
		if strings.HasSuffix(f.name, "/") {
			err = os.Mkdir(path, 0o755)
		} else {
			err = os.WriteFile(path, []byte("x"), 0o644)
		}
		if err == nil && f.old {
			err = os.Chtimes(path, old, old)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, f := range files {
		_, err := os.Stat(filepath.Join(dir, f.name))
		if exists := err == nil; exists != f.keep {
			t.Errorf("%s: exists %v after opening, want %v (stat error %v)", f.name, exists, f.keep, err)
		}
	}
	columnsEqual(t, "after cleanup", d, src)
}

// TestSpillSourcesShareDirectory: two sources over one directory (as
// two sessions of one dataset in ldserve) first-touch every shard at
// once from several goroutines each. Their writers must not clobber
// each other's temp files, so every call succeeds and serves the
// table's words.
func TestSpillSourcesShareDirectory(t *testing.T) {
	d := testDataset(t, 51)
	mem, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	dir := t.TempDir()
	var srcs []Source
	for range 2 {
		src, err := NewSpill(d, dir, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		srcs = append(srcs, src)
	}
	n := mem.Plan().NumShards()
	errs := make(chan error, 4*len(srcs)*n)
	shards := make(chan *Shard, 4*len(srcs)*n)
	var wg sync.WaitGroup
	for _, src := range srcs {
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range n {
					sh, err := src.Shard((k + g) % n)
					if err != nil {
						errs <- err
						continue
					}
					shards <- sh
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	close(shards)
	for err := range errs {
		t.Error(err)
	}
	for sh := range shards {
		want, err := mem.Shard(sh.Meta.Index)
		if err != nil {
			t.Fatal(err)
		}
		shardsIdentical(t, "shared directory", want, sh)
	}
}

// TestSpillPlansShareDirectory: files are named by column range, so a
// shard-size-8 plan and a shard-size-16 plan spilling into one
// directory keep their own files, and a later size-8 source reuses its
// files instead of rewriting them.
func TestSpillPlansShareDirectory(t *testing.T) {
	d := testDataset(t, 51)
	dir := t.TempDir()
	for _, size := range []int{8, 16} {
		src, err := NewSpill(d, dir, size, 0)
		if err != nil {
			t.Fatal(err)
		}
		columnsEqual(t, fmt.Sprintf("size %d", size), d, src)
		src.Close()
	}
	old := time.Date(2004, 4, 26, 0, 0, 0, 0, time.UTC)
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// 7 size-8 ranges and 4 size-16 ranges; [48,51) belongs to both.
	if len(files) != 10 {
		t.Fatalf("spilled %d files, want 10", len(files))
	}
	for _, f := range files {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	columnsEqual(t, "size 8 again", d, src)
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(old) {
			t.Fatalf("%s was rewritten", filepath.Base(f))
		}
	}
}

func TestSourceShardOutOfRange(t *testing.T) {
	d := testDataset(t, 20)
	src, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Shard(-1); err == nil {
		t.Fatal("Shard(-1) succeeded")
	}
	if _, err := src.Shard(src.Plan().NumShards()); err == nil {
		t.Fatal("Shard(NumShards) succeeded")
	}
	src.Close()
	if _, err := src.Shard(0); err == nil {
		t.Fatal("Shard on a closed source succeeded")
	}
}

// TestSourceStress drives a Mem and a Spill source with a resident
// capacity of 2 over 7 shards from several goroutines at once: first
// beside a goroutine that sweeps every shard (evicting whatever is
// resident), then beside one that sweeps and then closes the source.
// Every shard served must hold exactly genotype.PackRange's words for
// its range, the source must hold at most 2 shards once the goroutines
// stop, and every request after Close must fail.
func TestSourceStress(t *testing.T) {
	const hot, workers, rounds = 2, 4, 300
	d := testDataset(t, 51)
	for _, kind := range []string{"mem", "spill"} {
		t.Run(kind, func(t *testing.T) {
			var src Source
			var err error
			if kind == "mem" {
				src, err = NewMem(d, 8, hot)
			} else {
				src, err = NewSpill(d, t.TempDir(), 8, hot)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			core := src.(interface{ resident() int })
			plan := src.Plan()
			want := make([][]byte, plan.NumShards())
			for i, m := range plan.Metas {
				want[i] = genotype.AppendWords(nil, genotype.PackRange(d, m.Start, m.End))
			}
			var closing atomic.Bool
			request := func(i int) bool {
				sh, err := src.Shard(i)
				if err != nil {
					if !closing.Load() {
						t.Errorf("shard %d: %v before Close", i, err)
					}
					return false
				}
				if sh.Meta != plan.Metas[i] || !bytes.Equal(genotype.AppendWords(nil, sh.Packed), want[i]) {
					t.Errorf("shard %d: words differ from PackRange", i)
				}
				return true
			}
			sweep := func() {
				for r := 0; r < 20; r++ {
					for i := range want {
						request(i)
					}
				}
			}
			run := func(other func()) {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							// Each worker stays on a shard for a few
							// requests, as a gather does, then moves.
							if !request((w + r/3) % len(want)) {
								return
							}
						}
					}(w)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					other()
				}()
				wg.Wait()
			}

			run(sweep)
			if got := core.resident(); got > hot {
				t.Fatalf("%d shards resident after the sweep, cap %d", got, hot)
			}
			run(func() {
				sweep()
				closing.Store(true)
				src.Close()
			})
			if got := core.resident(); got > hot {
				t.Fatalf("%d shards resident after Close, cap %d", got, hot)
			}
			for i := range want {
				if _, err := src.Shard(i); err == nil {
					t.Fatalf("shard %d served after Close", i)
				}
			}
		})
	}
}

// shardsIdentical checks two materializations of one shard hold the
// same packed words, compared through their class planes (het, hom2
// and missing determine both bits of every code).
func shardsIdentical(t *testing.T, name string, a, b *Shard) {
	t.Helper()
	if a.Meta != b.Meta || len(a.Packed) != len(b.Packed) {
		t.Fatalf("%s: shard %d shape differs", name, a.Meta.Index)
	}
	for c := range a.Packed {
		x, y := a.Packed[c], b.Packed[c]
		if x.Len() != y.Len() || x.NumWords() != y.NumWords() {
			t.Fatalf("%s: shard %d column %d: %d rows/%d words vs %d/%d",
				name, a.Meta.Index, c, x.Len(), x.NumWords(), y.Len(), y.NumWords())
		}
		for w := 0; w < x.NumWords(); w++ {
			h1, t1, m1 := x.Planes(w)
			h2, t2, m2 := y.Planes(w)
			if h1 != h2 || t1 != t2 || m1 != m2 {
				t.Fatalf("%s: shard %d column %d word %d differs", name, a.Meta.Index, c, w)
			}
		}
	}
}

// TestMemAndSpillShardsWordIdentical: the Mem source packs from the
// row-major table, the spill source packs its first touch from the
// table and writes those words to its file, and a re-read decodes them
// from the file. All three must hold the same words for every shard of
// one plan.
func TestMemAndSpillShardsWordIdentical(t *testing.T) {
	d := testDataset(t, 51)
	mem, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	dir := t.TempDir()
	first, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	reread, err := NewSpill(d, dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	for i := 0; i < mem.Plan().NumShards(); i++ {
		m, err := mem.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		f, err := first.Shard(i) // writes the file, packs from the table
		if err != nil {
			t.Fatal(err)
		}
		r, err := reread.Shard(i) // reads the file back
		if err != nil {
			t.Fatal(err)
		}
		shardsIdentical(t, "spill first touch", m, f)
		shardsIdentical(t, "spill read", m, r)
	}
}

// BenchmarkPackShard packs one DefaultShardSize-wide shard of the
// paper's 176 individuals (1% missing) from the row-major table, the
// work a cold Mem shard or a spill first touch costs.
func BenchmarkPackShard(b *testing.B) {
	cfg := popgen.Paper249(1)
	cfg.NumSNPs = DefaultShardSize
	cfg.MissingRate = 0.01
	d, err := popgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanFor(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildShard(d, plan.Metas[0])
	}
}

// BenchmarkSpillShardRead re-reads one DefaultShardSize-wide spill
// file of the paper's 176 individuals (1% missing): what a resident-set miss on
// a spilled shard costs once its file exists — the read, the header
// and CRC checks, and decoding the payload into packed words. The file
// is in the page cache; file_B reports its size on disk.
func BenchmarkSpillShardRead(b *testing.B) {
	cfg := popgen.Paper249(1)
	cfg.NumSNPs = DefaultShardSize
	cfg.MissingRate = 0.01
	d, err := popgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewSpill(d, b.TempDir(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Shard(0); err != nil { // first touch writes the file
		b.Fatal(err)
	}
	plan := src.Plan()
	m := plan.Metas[0]
	path := spillPath(src.(*spillSource).dir, m)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	if want := int64(spillHeaderSize + 8*6*DefaultShardSize); plan.Rows != 176 || fi.Size() != want {
		b.Fatalf("%d rows, %d-byte file, want 176 rows and %d bytes", plan.Rows, fi.Size(), want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readSpill(path, plan, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fi.Size()), "file_B")
}
