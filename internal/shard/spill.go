package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/genotype"
)

// Spill file layout: a fixed 40-byte header followed by the raw
// genotype payload, column-major (Width() columns of Rows bytes each,
// one byte per genotype code). Files are write-once: a valid file is
// never rewritten, so concurrent readers and a restarted process can
// trust whatever the header describes. The whole file is read in one
// call — at shard granularity, sequential reads already amortize like
// an mmap would, without platform-specific code behind the Source
// seam.
const (
	spillMagic      = "LDSHRD1\n"
	spillHeaderSize = len(spillMagic) + 8 + 8 + 8 + 8 // magic, parent, start, end, rows
)

// spillHeader encodes Meta plus the row count, so a reader can verify
// a file belongs to the plan before trusting its payload.
func spillHeader(plan Plan, m Meta) []byte {
	b := make([]byte, spillHeaderSize)
	copy(b, spillMagic)
	binary.LittleEndian.PutUint64(b[8:], plan.Parent)
	binary.LittleEndian.PutUint64(b[16:], uint64(m.Start))
	binary.LittleEndian.PutUint64(b[24:], uint64(m.End))
	binary.LittleEndian.PutUint64(b[32:], uint64(plan.Rows))
	return b
}

// spillPath names shard i's file inside the spill directory.
func spillPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%06d.bin", i))
}

// spillManifest is the human-readable description written next to the
// shard files; the binary headers, not the manifest, are what loads
// are verified against.
type spillManifest struct {
	Parent    string `json:"parent"` // dataset fingerprint, 16 hex digits
	NumSNPs   int    `json:"num_snps"`
	Rows      int    `json:"rows"`
	ShardSize int    `json:"shard_size"`
	NumShards int    `json:"num_shards"`
}

// spillSource spills shards to write-once files on first use and
// re-reads them on LRU misses, keeping only the hot set resident. It
// retains the dataset solely to (re)write missing or stale files; all
// steady-state traffic is served from disk + LRU.
type spillSource struct {
	*lruSource
	dir  string
	data *genotype.Dataset
}

// NewSpill builds a Source over a spill directory (created if needed):
// shard files are written on first demand — write-once, crash-safe via
// temp+rename — and later demands (including from a restarted process
// reusing the directory) are served by reading the file back. Files
// whose header does not match the plan (a different dataset or shard
// size spilled here before) are rewritten. hot sizes the resident LRU
// (0 = DefaultHotShards).
func NewSpill(d *genotype.Dataset, dir string, shardSize, hot int) (Source, error) {
	plan, err := PlanFor(d, shardSize)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("shard: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: spill dir: %w", err)
	}
	s := &spillSource{dir: dir, data: d}
	s.lruSource = newLRUSource(plan, hot, s.loadShard)
	man, err := json.Marshal(spillManifest{
		Parent:    fmt.Sprintf("%016x", plan.Parent),
		NumSNPs:   plan.NumSNPs,
		Rows:      plan.Rows,
		ShardSize: plan.ShardSize,
		NumShards: plan.NumShards(),
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), man, 0o644); err != nil {
		return nil, fmt.Errorf("shard: spill manifest: %w", err)
	}
	return s, nil
}

// loadShard reads shard i's spill file, writing it first if absent or
// stale.
func (s *spillSource) loadShard(i int) (*Shard, error) {
	m := s.lruSource.plan.Metas[i]
	path := spillPath(s.dir, i)
	sh, err := readSpill(path, s.lruSource.plan, m)
	if err == nil {
		return sh, nil
	}
	if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errSpillStale) {
		return nil, err
	}
	// First touch (or a stale leftover from another dataset): spill
	// from the table and pack. Write-once via temp+rename, so a
	// concurrent loader or a crash never exposes a torn file.
	if err := writeSpill(path, s.lruSource.plan, m, s.data); err != nil {
		return nil, err
	}
	return buildShard(s.data, m), nil
}

// errSpillStale marks a structurally intact spill file that belongs to
// a different plan (dataset, range or row count mismatch).
var errSpillStale = errors.New("shard: spill file does not match plan")

// readSpill loads and verifies one spill file.
func readSpill(path string, plan Plan, m Meta) (*Shard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := spillHeader(plan, m)
	if len(b) < spillHeaderSize || string(b[:spillHeaderSize]) != string(want) {
		return nil, fmt.Errorf("%w: %s", errSpillStale, path)
	}
	payload := b[spillHeaderSize:]
	if len(payload) != m.Width()*plan.Rows {
		return nil, fmt.Errorf("%w: %s: payload %d bytes, want %d",
			errSpillStale, path, len(payload), m.Width()*plan.Rows)
	}
	return packShard(m, plan.Rows, func(c int, dst []genotype.Genotype) error {
		off := c * plan.Rows
		for r, v := range payload[off : off+plan.Rows] {
			g := genotype.Genotype(v)
			if !g.Valid() {
				return fmt.Errorf("shard: corrupt spill file %s: invalid genotype %d at offset %d", path, v, off+r)
			}
			dst[r] = g
		}
		return nil
	})
}

// writeSpill lands shard m of the dataset as one file atomically
// (temp + rename).
func writeSpill(path string, plan Plan, m Meta, d *genotype.Dataset) error {
	buf := make([]byte, 0, spillHeaderSize+m.Width()*plan.Rows)
	buf = append(buf, spillHeader(plan, m)...)
	col := make([]genotype.Genotype, plan.Rows)
	for j := m.Start; j < m.End; j++ {
		for _, g := range d.Column(j, col) {
			buf = append(buf, byte(g))
		}
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("shard: spill write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: spill write: %w", err)
	}
	return nil
}
