package ckpt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testCkpt(round int) *Checkpoint {
	return &Checkpoint{
		Round:  round,
		Step:   round * 4,
		Meta:   map[string]float64{"loss": 1.5},
		Params: []float32{1, 2, 3, float32(round)},
	}
}

func TestRegistryPutGetTag(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := testCkpt(3)
	lineage := map[string]string{"job": "agg seed=1 model=tiny", "data": "shards 0-3"}
	hash, err := reg.Put(c, lineage)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(hash) != 64 {
		t.Fatalf("hash %q is not sha256 hex", hash)
	}
	if err := reg.Tag("latest", hash); err != nil {
		t.Fatalf("Tag: %v", err)
	}

	for _, ref := range []string{hash, hash[:12], "tag:latest"} {
		got, m, err := reg.Get(ref)
		if err != nil {
			t.Fatalf("Get(%q): %v", ref, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("Get(%q) mismatch: %+v", ref, got)
		}
		if m == nil || m.Round != 3 || m.Lineage["job"] == "" {
			t.Fatalf("Get(%q) manifest: %+v", ref, m)
		}
	}

	// Content addressing: identical content re-publishes to the same hash.
	hash2, err := reg.Put(testCkpt(3), lineage)
	if err != nil || hash2 != hash {
		t.Fatalf("re-publish: hash %q err %v, want %q", hash2, err, hash)
	}
	// Different content gets a different address, and retagging moves the tag.
	hash3, err := reg.Put(testCkpt(4), nil)
	if err != nil || hash3 == hash {
		t.Fatalf("distinct content collided: %v %v", hash3, err)
	}
	if err := reg.Tag("latest", hash3); err != nil {
		t.Fatal(err)
	}
	got, _, err := reg.Get("tag:latest")
	if err != nil || got.Round != 4 {
		t.Fatalf("tag did not move: %+v %v", got, err)
	}
}

func TestRegistryRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := reg.Put(testCkpt(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	blobPath := filepath.Join(dir, "blobs", hash)
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Get(hash); err == nil || !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("corrupt blob accepted: %v", err)
	}
}

func TestRegistryResolveErrors(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := reg.Put(testCkpt(1), nil)
	if _, err := reg.Resolve("tag:missing"); err == nil {
		t.Fatal("missing tag resolved")
	}
	if _, err := reg.Resolve("ab"); err == nil {
		t.Fatal("too-short prefix resolved")
	}
	if _, err := reg.Resolve("abcdef0123"); err == nil {
		t.Fatal("unknown prefix resolved")
	}
	if err := reg.Tag("bad/name", h1); err == nil {
		t.Fatal("slash in tag name accepted")
	}
	if err := reg.Tag("dangling", strings.Repeat("0", 64)); err == nil {
		t.Fatal("tag at missing blob accepted")
	}
	if !IsRegistryRef("tag:latest") || IsRegistryRef("/tmp/x.ckpt") {
		t.Fatal("IsRegistryRef misclassifies")
	}
}
