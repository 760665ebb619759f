package gsim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gsim/internal/faultfs"
)

// FuzzManifest writes raw bytes as a data directory's MANIFEST and reads
// them back. readManifest must never panic, and whatever it accepts must
// be a manifest recovery can act on: Shards == len(Segments) ≥ 1, every
// segment a distinct file directly inside the directory, and
// writeManifest → readManifest reproduces it unchanged. The seeds under
// testdata/fuzz/FuzzManifest are a manifest from a real checkpoint, a
// truncated copy of it, one at version 2 and one naming a segment outside
// the directory.
func FuzzManifest(f *testing.F) {
	fs := faultfs.Or(nil)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(fs, dir)
		if err != nil {
			return
		}
		if man == nil {
			t.Fatal("a present manifest read as absent")
		}
		if man.Shards < 1 || len(man.Segments) != man.Shards {
			t.Fatalf("accepted %d segments for %d shards", len(man.Segments), man.Shards)
		}
		seen := make(map[string]bool, len(man.Segments))
		for _, s := range man.Segments {
			p := filepath.Join(dir, s)
			if filepath.Dir(p) != filepath.Clean(dir) || filepath.Base(p) != s || seen[s] {
				t.Fatalf("accepted segment %q of %q", s, man.Segments)
			}
			seen[s] = true
		}
		if err := writeManifest(fs, dir, man); err != nil {
			t.Fatal(err)
		}
		again, err := readManifest(fs, dir)
		if err != nil {
			t.Fatalf("rewritten manifest rejected: %v", err)
		}
		// gob sends no empty slice, so an empty label list comes back nil.
		if len(man.Labels) == 0 {
			man.Labels = nil
		}
		if !reflect.DeepEqual(man, again) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", man, again)
		}
	})
}
