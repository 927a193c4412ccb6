package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/genotype"
)

// Spill file layout: a fixed 44-byte header followed by the shard's
// packed words, the layout Shard.Packed holds in memory
// (genotype.AppendWords: Width() columns of ceil(Rows/32) words each,
// every word 8 little-endian bytes). The header is the magic, the
// parent fingerprint, start, end and row count as little-endian
// uint64s, and the IEEE CRC-32 of the payload as a little-endian
// uint32. Files are write-once: a valid file is never rewritten, so
// concurrent readers and a restarted process can trust whatever the
// header describes. Nothing is fsync'd: a file a crash left torn or
// zero-filled fails the CRC and is rebuilt from the table, so it is
// never served. The whole file is read in one call — at shard
// granularity, sequential reads already amortize like an mmap would,
// without platform-specific code behind the Source seam.
const (
	spillMagic      = "LDSHRD2\n"
	spillIdentSize  = len(spillMagic) + 8 + 8 + 8 + 8 // magic, parent, start, end, rows
	spillHeaderSize = spillIdentSize + 4              // + payload CRC-32
)

// spillIdent encodes Meta plus the row count — the header minus the
// CRC — so a reader can verify a file belongs to the plan before
// trusting its payload.
func spillIdent(plan Plan, m Meta) []byte {
	b := make([]byte, spillIdentSize)
	copy(b, spillMagic)
	binary.LittleEndian.PutUint64(b[8:], plan.Parent)
	binary.LittleEndian.PutUint64(b[16:], uint64(m.Start))
	binary.LittleEndian.PutUint64(b[24:], uint64(m.End))
	binary.LittleEndian.PutUint64(b[32:], uint64(plan.Rows))
	return b
}

// spillPath names the file of shard m's column range inside the spill
// directory, so plans of different shard sizes sharing a directory
// never claim each other's files.
func spillPath(dir string, m Meta) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-%d.bin", m.Start, m.End))
}

// spillSource spills shards to write-once files on first use and
// re-reads them on LRU misses, keeping only the hot set resident. It
// reads the dataset (lruSource.data) solely to (re)write missing or
// stale files; all steady-state traffic is served from disk + LRU.
type spillSource struct {
	*lruSource
	dir string
}

// NewSpill builds a Source over a spill directory (created if needed):
// shard files are written on first demand — write-once, atomic via
// temp+rename — and later demands (including from a restarted process
// reusing the directory) are served by reading the file back. Files
// that do not match the plan or fail their CRC (a different dataset
// spilled here before, an older build's format, a torn write) are
// rewritten. Files of the older naming that no build reads any more,
// manifest.json and shard-NNNNNN.bin, are removed on opening, and so
// are temp files (*.bin.tmp*) last modified more than staleTemp ago,
// which a writer that crashed mid-write left; a younger temp file is
// left alone, as another source over the same directory may be
// writing it. hot sizes the resident LRU (0 = DefaultHotShards).
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
	if err := cleanSpillDir(dir); err != nil {
		return nil, fmt.Errorf("shard: spill dir: %w", err)
	}
	s := &spillSource{dir: dir}
	s.lruSource = newLRUSource(plan, hot, d, s.loadShard)
	return s, nil
}

// staleTemp is the age past which a spill temp file is taken for one a
// crashed writer left. A live writer's temp file is milliseconds old.
const staleTemp = time.Hour

// cleanSpillDir deletes from dir the files of the older spill naming,
// manifest.json and shard-NNNNNN.bin (named by shard index alone), and
// temp files older than staleTemp.
func cleanSpillDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		name := e.Name()
		index, ok := strings.CutPrefix(name, "shard-")
		index, bin := strings.CutSuffix(index, ".bin")
		remove := name == "manifest.json" ||
			ok && bin && index != "" && strings.Trim(index, "0123456789") == ""
		if !remove && strings.Contains(name, ".bin.tmp") {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				continue // its writer renamed or removed it
			}
			if err != nil {
				return err
			}
			remove = time.Since(info.ModTime()) > staleTemp
		}
		if !remove {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// loadShard reads shard i's spill file, writing it first if absent or
// stale.
func (s *spillSource) loadShard(i int) (*Shard, error) {
	plan := s.lruSource.plan
	m := plan.Metas[i]
	path := spillPath(s.dir, m)
	sh, err := readSpill(path, plan, m)
	if err == nil {
		return sh, nil
	}
	if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errSpillStale) {
		return nil, err
	}
	// First touch (or a stale leftover): pack from the table once and
	// spill those words.
	sh = buildShard(s.data, m)
	if err := writeSpill(path, plan, sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// errSpillStale marks a spill file that must not be served: another
// plan's or format's header, a payload failing its CRC, or a wrong
// payload length.
var errSpillStale = errors.New("shard: stale spill file")

// readSpill loads and verifies one spill file.
func readSpill(path string, plan Plan, m Meta) (*Shard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < spillHeaderSize || !bytes.Equal(b[:spillIdentSize], spillIdent(plan, m)) {
		return nil, fmt.Errorf("%w: %s: header does not match the plan", errSpillStale, path)
	}
	payload := b[spillHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[spillIdentSize:]) {
		return nil, fmt.Errorf("%w: %s: payload CRC mismatch", errSpillStale, path)
	}
	cols, err := genotype.DecodeWords(payload, m.Width(), plan.Rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errSpillStale, path, err)
	}
	return &Shard{Meta: m, Packed: cols}, nil
}

// writeSpill lands shard sh as one file atomically: a uniquely named
// temp file in the same directory, renamed over path, so concurrent
// writers of one shard (two sources over one directory) never clobber
// each other's temp file and a reader never sees a torn file.
func writeSpill(path string, plan Plan, sh *Shard) error {
	buf := genotype.AppendWords(append(spillIdent(plan, sh.Meta), 0, 0, 0, 0), sh.Packed)
	binary.LittleEndian.PutUint32(buf[spillIdentSize:], crc32.ChecksumIEEE(buf[spillHeaderSize:]))
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("shard: spill write: %w", err)
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("shard: spill write: %w", err)
	}
	return nil
}
