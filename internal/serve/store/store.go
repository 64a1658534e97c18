// Package store is the disk tier of the content-addressed result cache:
// a directory of result files keyed by spec hash, written atomically
// (temp file + rename) and self-checking on read (every file carries a
// sha256 of its payload; a mismatch deletes the file and reports a
// miss). Because the simulator is byte-deterministic in the spec, the
// spec's sha256 fully addresses its output bytes — so a result that
// survives a process restart, or arrives from a peer node, is guaranteed
// identical to a fresh computation, and a corrupt file is always safe to
// throw away and recompute.
//
// The in-memory LRU (internal/serve) stays the hot tier; this package is
// the spill tier that makes results survive restarts and lets cluster
// peers read each other's work.
//
// File format (one file per result, named <spechash>.res):
//
//	line 1: JSON header {"hash","sum","text_len","json_len"}
//	then:   text payload bytes, immediately followed by JSON payload bytes
//
// "sum" is the sha256 (hex) of text||json, verified on every Get.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound reports a miss: no (valid) entry for the hash.
var ErrNotFound = errors.New("store: result not found")

// ErrCorrupt reports a payload that failed its checksum. The offending
// file has already been removed; callers treat it exactly like a miss
// and recompute.
var ErrCorrupt = errors.New("store: corrupt result evicted")

const (
	suffix     = ".res"
	tmpPattern = ".tmp-*"
)

// index is the directory machinery Store and Blobs share: one file per
// hash named <hash><suffix>, and the set of hashes believed present on
// disk under a mutex.
type index struct {
	dir    string
	suffix string

	mu     sync.Mutex
	hashes map[string]struct{} // entries believed present on disk
}

// open creates (if needed) and scans dir, removing leftover temp files
// from crashed writers.
func (x *index) open(dir, suffix string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	x.dir, x.suffix, x.hashes = dir, suffix, make(map[string]struct{})
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			_ = os.Remove(filepath.Join(dir, name)) // crashed writer
			continue
		}
		if h, ok := strings.CutSuffix(name, suffix); ok && validHash(h) {
			x.hashes[h] = struct{}{}
		}
	}
	return nil
}

// Dir returns the backing directory.
func (x *index) Dir() string { return x.dir }

// Len returns the number of entries believed present.
func (x *index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.hashes)
}

// Hashes returns every stored hash in sorted order.
func (x *index) Hashes() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]string, 0, len(x.hashes))
	for h := range x.hashes {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Has reports whether an entry is believed present (no checksum pass —
// Store.Get performs the authoritative check).
func (x *index) Has(hash string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.hashes[hash]
	return ok
}

func (x *index) path(hash string) string {
	return filepath.Join(x.dir, hash+x.suffix)
}

func (x *index) add(hash string) {
	x.mu.Lock()
	x.hashes[hash] = struct{}{}
	x.mu.Unlock()
}

func (x *index) forget(hash string) {
	x.mu.Lock()
	delete(x.hashes, hash)
	x.mu.Unlock()
}

// Store is a disk-backed content-addressed result store. It is safe for
// concurrent use by multiple goroutines within one process; cross-process
// safety comes from the atomic rename (readers only ever see complete
// files).
type Store struct {
	index
	max int // entry bound; 0 = unbounded
}

// header is the first line of every result file.
type header struct {
	Hash    string `json:"hash"`
	Sum     string `json:"sum"`
	TextLen int    `json:"text_len"`
	JSONLen int    `json:"json_len"`
}

// Open creates (if needed) and scans dir. maxEntries bounds the number
// of result files kept on disk (0 = unbounded); when exceeded, the
// oldest files by modification time are evicted. Leftover temp files
// from a crashed writer are removed.
func Open(dir string, maxEntries int) (*Store, error) {
	s := &Store{max: maxEntries}
	if err := s.open(dir, suffix); err != nil {
		return nil, err
	}
	return s, nil
}

// payloadSum is the self-check digest: sha256 over text||json.
func payloadSum(text, js []byte) string {
	d := sha256.New()
	d.Write(text)
	d.Write(js)
	return hex.EncodeToString(d.Sum(nil))
}

// Put persists a result under its spec hash: write to a temp file in the
// same directory, then rename into place — readers never observe a
// partial file, and a crash leaves only a temp file that the next Open
// sweeps away.
func (s *Store) Put(hash string, text, js []byte) error {
	if !validHash(hash) {
		return fmt.Errorf("store: invalid hash %q", hash)
	}
	h := header{Hash: hash, Sum: payloadSum(text, js), TextLen: len(text), JSONLen: len(js)}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	for _, b := range [][]byte{hb, []byte("\n"), text, js} {
		if _, err := tmp.Write(b); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, s.path(hash)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	s.add(hash)
	s.evict()
	return nil
}

// Get loads a result. A missing entry returns ErrNotFound; a file whose
// payload fails its checksum (or whose header disagrees with its name)
// is deleted and returns ErrCorrupt — both are recompute signals.
func (s *Store) Get(hash string) (text, js []byte, err error) {
	if !validHash(hash) {
		return nil, nil, ErrNotFound
	}
	raw, err := os.ReadFile(s.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			s.forget(hash)
			return nil, nil, ErrNotFound
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, nil, s.corrupt(hash)
	}
	var h header
	if json.Unmarshal(raw[:nl], &h) != nil || h.Hash != hash ||
		h.TextLen < 0 || h.JSONLen < 0 || len(raw)-nl-1 != h.TextLen+h.JSONLen {
		return nil, nil, s.corrupt(hash)
	}
	body := raw[nl+1:]
	text, js = body[:h.TextLen], body[h.TextLen:]
	if payloadSum(text, js) != h.Sum {
		return nil, nil, s.corrupt(hash)
	}
	return text, js, nil
}

// Remove deletes an entry if present.
func (s *Store) Remove(hash string) {
	_ = os.Remove(s.path(hash))
	s.forget(hash)
}

// corrupt evicts a failed file and returns ErrCorrupt.
func (s *Store) corrupt(hash string) error {
	s.Remove(hash)
	return ErrCorrupt
}

// evict trims the store to its entry bound, oldest modification time
// first. Best-effort: eviction failures only mean the disk holds a few
// extra results.
func (s *Store) evict() {
	if s.max <= 0 {
		return
	}
	s.mu.Lock()
	over := len(s.hashes) - s.max
	s.mu.Unlock()
	if over <= 0 {
		return
	}
	type aged struct {
		hash string
		mod  int64
	}
	var files []aged
	for _, h := range s.Hashes() {
		if fi, err := os.Stat(s.path(h)); err == nil {
			files = append(files, aged{h, fi.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].hash < files[j].hash // deterministic tie-break
	})
	over = len(files) - s.max
	for i := 0; i < over; i++ {
		s.Remove(files[i].hash)
	}
}

// validHash accepts lowercase-hex sha256 strings — the only keys the
// spec layer produces, and incidentally exactly the names that are safe
// as file names.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, r := range h {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
