package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Registry is a content-addressed model store: checkpoint blobs keyed by
// the SHA-256 of their encoded bytes, a JSON lineage manifest per blob, and
// mutable tags ("latest", "best", release names) pointing at hashes. The
// blob encoding is exactly Save's on-disk format, so a blob can be copied
// out and loaded as an ordinary checkpoint, and the same (Round, Params,
// Meta) always hashes to the same address — publishing an identical model
// twice stores it once.
//
// Layout under the registry directory:
//
//	blobs/<sha256-hex>            checkpoint bytes
//	manifests/<sha256-hex>.json   lineage manifest
//	tags/<name>                   file containing a hash
//
// All writes are atomic (temp + rename + dir fsync), so a crashed publish
// leaves no partial blob and a tag always points at a complete manifest.
type Registry struct {
	dir string
}

// Manifest is a published checkpoint's lineage: where the model came from,
// pinned at publish time. Lineage keys are free-form ("job", "seed",
// "data", "parent", ...); fed stamps the job configuration, the seed, and
// the data-shard assignment.
type Manifest struct {
	Hash    string            `json:"hash"`
	Round   int               `json:"round"`
	Step    int               `json:"step"`
	Lineage map[string]string `json:"lineage,omitempty"`
}

// OpenRegistry opens (creating if needed) a registry directory.
func OpenRegistry(dir string) (*Registry, error) {
	for _, sub := range []string{"blobs", "manifests", "tags"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("ckpt: registry dir: %w", err)
		}
	}
	return &Registry{dir: dir}, nil
}

// Put publishes a checkpoint: the encoded blob lands under its content
// hash with a manifest carrying the lineage. Returns the hash (the
// checkpoint's permanent address). Re-publishing identical content is a
// cheap no-op that refreshes the manifest.
func (r *Registry) Put(c *Checkpoint, lineage map[string]string) (string, error) {
	blob := encodeCheckpoint(c)
	sum := sha256.Sum256(blob)
	hash := hex.EncodeToString(sum[:])
	blobPath := filepath.Join(r.dir, "blobs", hash)
	if _, err := os.Stat(blobPath); err != nil {
		if err := writeFileAtomic(blobPath, blob); err != nil {
			return "", err
		}
	}
	m := Manifest{Hash: hash, Round: c.Round, Step: c.Step, Lineage: lineage}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("ckpt: registry manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(r.dir, "manifests", hash+".json"), raw); err != nil {
		return "", err
	}
	return hash, nil
}

// Tag points name at hash. Tags are the registry's only mutable state;
// the write is atomic, so a reader never sees a half-updated tag.
func (r *Registry) Tag(name, hash string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("ckpt: invalid tag name %q", name)
	}
	if _, err := os.Stat(filepath.Join(r.dir, "blobs", hash)); err != nil {
		return fmt.Errorf("ckpt: tag %q: no blob %s: %w", name, hash, err)
	}
	return writeFileAtomic(filepath.Join(r.dir, "tags", name), []byte(hash+"\n"))
}

// Resolve turns a reference into a blob hash. Accepted forms:
//
//	tag:<name>      a tag (e.g. "tag:latest")
//	<hex>           a full hash or an unambiguous hash prefix (≥ 6 chars)
func (r *Registry) Resolve(ref string) (string, error) {
	if name, ok := strings.CutPrefix(ref, "tag:"); ok {
		raw, err := os.ReadFile(filepath.Join(r.dir, "tags", name))
		if err != nil {
			return "", fmt.Errorf("ckpt: tag %q: %w", name, err)
		}
		return strings.TrimSpace(string(raw)), nil
	}
	if len(ref) == sha256.Size*2 {
		return ref, nil
	}
	if len(ref) < 6 {
		return "", fmt.Errorf("ckpt: hash prefix %q too short (need ≥ 6 chars)", ref)
	}
	entries, err := os.ReadDir(filepath.Join(r.dir, "blobs"))
	if err != nil {
		return "", fmt.Errorf("ckpt: registry: %w", err)
	}
	var matches []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ref) {
			matches = append(matches, e.Name())
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("ckpt: no blob matches %q", ref)
	default:
		return "", fmt.Errorf("ckpt: hash prefix %q is ambiguous (%d matches)", ref, len(matches))
	}
}

// Get resolves ref, loads the blob, verifies its content hash, and returns
// the checkpoint with its manifest (nil manifest if none was written). A
// blob whose bytes no longer hash to its address is corrupt and rejected.
func (r *Registry) Get(ref string) (*Checkpoint, *Manifest, error) {
	hash, err := r.Resolve(ref)
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(filepath.Join(r.dir, "blobs", hash))
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: registry blob: %w", err)
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != hash {
		return nil, nil, fmt.Errorf("ckpt: registry blob %s fails content verification", hash)
	}
	c, err := decodeCheckpoint(raw)
	if err != nil {
		return nil, nil, err
	}
	var m *Manifest
	if mraw, err := os.ReadFile(filepath.Join(r.dir, "manifests", hash+".json")); err == nil {
		m = &Manifest{}
		if jerr := json.Unmarshal(mraw, m); jerr != nil {
			m = nil
		}
	}
	return c, m, nil
}

// IsRegistryRef reports whether a -ckpt style argument names a registry
// entry ("tag:<name>") rather than a filesystem path.
func IsRegistryRef(ref string) bool { return strings.HasPrefix(ref, "tag:") }
