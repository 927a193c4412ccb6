package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureDirs lists every fixture package under testdata/src. The
// floatdet fixture nests under internal/genotype so its import path
// suffix-matches the real kernel scope; the deadexport fixture is a
// small module tree (a public root, internal packages, a user) whose
// packages import each other by their in-module paths.
var fixtureDirs = []string{
	"testdata/src/mutexio",
	"testdata/src/wiretag",
	"testdata/src/ctxflow",
	"testdata/src/floatdet/internal/genotype",
	"testdata/src/clean",
	"testdata/src/deadexport",
	"testdata/src/deadexport/internal/lib",
	"testdata/src/deadexport/internal/testonly",
	"testdata/src/deadexport/user",
}

// Loading type-checks the stdlib from source, which dominates the
// test's runtime; do it once and index the units by import path.
var (
	loadOnce    sync.Once
	loadedUnits map[string]*unit
	loadErr     error
)

func fixtureUnit(t *testing.T, path string) *unit {
	t.Helper()
	loadOnce.Do(func() {
		units, err := loadUnits(fixtureDirs)
		if err != nil {
			loadErr = err
			return
		}
		loadedUnits = map[string]*unit{}
		for _, u := range units {
			loadedUnits[u.path] = u
		}
	})
	if loadErr != nil {
		t.Fatalf("loading fixtures: %v", loadErr)
	}
	u, ok := loadedUnits[path]
	if !ok {
		t.Fatalf("no fixture unit %q", path)
	}
	return u
}

func fixtureConfig() *config {
	cfg := defaultConfig()
	cfg.enable = map[string]bool{"mutexio": true, "wiretag": true, "ctxflow": true, "floatdet": true}
	return cfg
}

// wantComments parses the fixture's "// want "substr"" comments,
// returning expected message substrings keyed by "file:line".
func wantComments(t *testing.T, u *unit) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, file := range u.files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := c.Text
				for {
					i := strings.Index(text, `want "`)
					if i < 0 {
						break
					}
					rest := text[i+len(`want "`):]
					j := strings.IndexByte(rest, '"')
					if j < 0 {
						t.Fatalf("%s: unterminated want comment %q", u.posOf(c.Pos()), c.Text)
					}
					pos := u.fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], rest[:j])
					text = rest[j+1:]
				}
			}
		}
	}
	return out
}

// fileLine trims the column off a finding position.
func fileLine(pos string) string {
	if i := strings.LastIndexByte(pos, ':'); i >= 0 {
		return pos[:i]
	}
	return pos
}

// matchWants checks findings against the units' // want comments
// exactly: every want must be hit, every finding must be wanted.
func matchWants(t *testing.T, units []*unit, findings []finding) {
	t.Helper()
	wants := map[string][]string{}
	for _, u := range units {
		for key, substrs := range wantComments(t, u) {
			wants[key] = append(wants[key], substrs...)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture has no want comments")
	}
	matched := map[string]bool{} // "file:line substr" -> hit
	for _, f := range findings {
		key := fileLine(f.Pos)
		ok := false
		for _, substr := range wants[key] {
			if strings.Contains(f.Msg, substr) {
				matched[key+" "+substr] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
		}
	}
	for key, substrs := range wants {
		for _, substr := range substrs {
			if !matched[key+" "+substr] {
				t.Errorf("missing finding at %s matching %q", key, substr)
			}
		}
	}
}

// TestFixtures runs the whole suite over each finding fixture and
// matches the results against the // want comments.
func TestFixtures(t *testing.T) {
	for _, path := range []string{"mutexio", "wiretag", "ctxflow", "floatdet/internal/genotype"} {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			u := fixtureUnit(t, path)
			findings, err := runAnalyzers([]*unit{u}, fixtureConfig())
			if err != nil {
				t.Fatalf("runAnalyzers: %v", err)
			}
			if len(findings) == 0 {
				t.Fatalf("no findings; the fixture wants some")
			}
			matchWants(t, []*unit{u}, findings)
		})
	}
}

// TestDeadExportFixture runs deadexport over the fixture tree as one
// load: lib's dead declarations are flagged; what user references
// from another unit, the interface-implementing and stdlib-implicit
// methods, the aliased type's method, the allowed declaration and the
// package only a _test.go file imports are not.
func TestDeadExportFixture(t *testing.T) {
	var units []*unit
	for _, path := range []string{"deadexport", "deadexport/internal/lib", "deadexport/internal/testonly", "deadexport/user"} {
		units = append(units, fixtureUnit(t, path))
	}
	cfg := fixtureConfig()
	cfg.enable = map[string]bool{"deadexport": true}
	findings, err := runAnalyzers(units, cfg)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	matchWants(t, units, findings)

	// Without the unit that references them, lib's live exports are
	// reported too: the pass only sees what was loaded.
	partial, err := runAnalyzers(units[:3], cfg)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	if len(partial) <= len(findings) {
		t.Errorf("dropping package user reported %d findings, want more than the full load's %d", len(partial), len(findings))
	}
}

// TestCleanFixture asserts the suite is silent on the known-good
// package.
func TestCleanFixture(t *testing.T) {
	u := fixtureUnit(t, "clean")
	findings, err := runAnalyzers([]*unit{u}, fixtureConfig())
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding on clean fixture at %s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
	}
}

// TestEnableGating asserts -enable style selection really disables
// the other analyzers: only floatdet enabled, the mutexio fixture is
// silent.
func TestEnableGating(t *testing.T) {
	u := fixtureUnit(t, "mutexio")
	cfg := fixtureConfig()
	cfg.enable = map[string]bool{"floatdet": true}
	findings, err := runAnalyzers([]*unit{u}, cfg)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding with mutexio disabled at %s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
	}
}

// TestWiretagGolden exercises the manifest half of wiretag: -update
// writes a clean golden, then each kind of drift is reported.
func TestWiretagGolden(t *testing.T) {
	u := fixtureUnit(t, "wiretag")
	units := []*unit{u}
	cfg := fixtureConfig()
	cfg.wireScope = []string{"wiretag"} // the fixture IS the wire surface here
	cfg.goldenPath = filepath.Join(t.TempDir(), "wiretags.golden")

	// Before any golden exists, every computed tag is unpinned drift.
	findings, err := checkManifest(units, cfg)
	if err != nil {
		t.Fatalf("checkManifest: %v", err)
	}
	if len(findings) == 0 || !strings.Contains(findings[0].Msg, "not pinned") {
		t.Fatalf("want unpinned drift before -update, got %v", findings)
	}

	// -update writes the manifest; the next plain run is clean.
	cfg.update = true
	if _, err := checkManifest(units, cfg); err != nil {
		t.Fatalf("checkManifest -update: %v", err)
	}
	cfg.update = false
	findings, err = checkManifest(units, cfg)
	if err != nil {
		t.Fatalf("checkManifest after update: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("want clean manifest after -update, got %v", findings)
	}
	golden, err := os.ReadFile(cfg.goldenPath)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !strings.Contains(string(golden), "wiretag.Info.ID id\n") {
		t.Fatalf("golden missing the Info.ID pin:\n%s", golden)
	}

	drifts := []struct {
		name    string
		rewrite func(string) string
		wantMsg string
	}{
		{
			name: "changed tag",
			rewrite: func(s string) string {
				return strings.Replace(s, "wiretag.Info.ID id\n", "wiretag.Info.ID identifier\n", 1)
			},
			wantMsg: `wiretag.Info.ID is tagged "id", golden pins "identifier"`,
		},
		{
			name:    "unpinned field",
			rewrite: func(s string) string { return strings.Replace(s, "wiretag.Info.ID id\n", "", 1) },
			wantMsg: `wiretag.Info.ID (tagged "id") is not pinned`,
		},
		{
			name:    "stale pin",
			rewrite: func(s string) string { return s + "wiretag.Ghost.X gone\n" },
			wantMsg: `wiretag.Ghost.X pinned as "gone" but no longer exists`,
		},
	}
	for _, d := range drifts {
		t.Run(d.name, func(t *testing.T) {
			if err := os.WriteFile(cfg.goldenPath, []byte(d.rewrite(string(golden))), 0o644); err != nil {
				t.Fatal(err)
			}
			findings, err := checkManifest(units, cfg)
			if err != nil {
				t.Fatalf("checkManifest: %v", err)
			}
			found := false
			for _, f := range findings {
				if strings.Contains(f.Msg, d.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Errorf("want a finding containing %q, got %v", d.wantMsg, findings)
			}
		})
	}

	// A run that loads no wire-scope package leaves the golden alone
	// and reports nothing (partial runs must not cry missing).
	other := fixtureUnit(t, "clean")
	findings, err = checkManifest([]*unit{other}, cfg)
	if err != nil {
		t.Fatalf("checkManifest out of scope: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("out-of-scope run reported drift: %v", findings)
	}
}
